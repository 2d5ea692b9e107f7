"""Fig. 9: sorted normalized singular values of the QoS matrices.

The paper computes the SVD of the user-service matrices, normalizes so the
largest singular value is 1, and observes that all but the first few are
close to zero — the low-rank evidence behind choosing ``d = 10``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.runner import ExperimentScale
from repro.metrics.lowrank import effective_rank, normalized_singular_values
from repro.utils.tables import render_table


@dataclass
class SpectrumResult:
    """Normalized spectra for both QoS attributes."""

    rt_spectrum: np.ndarray
    tp_spectrum: np.ndarray
    rt_effective_rank: int
    tp_effective_rank: int

    def to_text(self) -> str:
        top = max(len(self.rt_spectrum), len(self.tp_spectrum))
        rows = [
            [
                k + 1,
                float(self.rt_spectrum[k]) if k < len(self.rt_spectrum) else float("nan"),
                float(self.tp_spectrum[k]) if k < len(self.tp_spectrum) else float("nan"),
            ]
            for k in range(top)
        ]
        table = render_table(
            ["ID", "Response Time", "Throughput"],
            rows,
            precision=4,
            title="Fig. 9 — sorted normalized singular values",
        )
        summary = (
            f"effective rank (90% energy): RT={self.rt_effective_rank}, "
            f"TP={self.tp_effective_rank}"
        )
        return f"{table}\n{summary}"


#: Leading singular values shown per attribute.
TOP_K = 50


def run_spectrum(
    scale: ExperimentScale | None = None,
) -> SpectrumResult:
    """Compute the Fig. 9 spectra on one slice of both attributes."""
    scale = scale if scale is not None else ExperimentScale.quick()
    rt = scale.dataset("response_time").slice(0)
    tp = scale.dataset("throughput").slice(0)
    return SpectrumResult(
        rt_spectrum=normalized_singular_values(rt, top_k=TOP_K),
        tp_spectrum=normalized_singular_values(tp, top_k=TOP_K),
        rt_effective_rank=effective_rank(rt),
        tp_effective_rank=effective_rank(tp),
    )


def main() -> None:
    print(run_spectrum().to_text())


if __name__ == "__main__":
    main()
