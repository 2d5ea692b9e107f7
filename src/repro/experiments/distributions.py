"""Figs. 7-8: QoS value distributions before and after data transformation.

Fig. 7 shows the raw response-time/throughput densities are highly skewed
(the paper truncates the axes at 10 s / 150 kbps for visibility); Fig. 8
shows the Box-Cox + normalization pipeline flattens them toward a
normal-like shape on [0, 1] — the property that lets the Gaussian-noise MF
model fit QoS data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.transform import QoSNormalizer
from repro.experiments.runner import ExperimentScale, make_amf_config
from repro.utils.tables import render_series


@dataclass
class DistributionResult:
    """Histogram series for one attribute, raw and transformed."""

    attribute: str
    raw_centers: np.ndarray
    raw_density: np.ndarray
    transformed_centers: np.ndarray
    transformed_density: np.ndarray
    skewness_raw: float
    skewness_transformed: float

    def to_text(self) -> str:
        parts = [
            f"Fig. 7 ({self.attribute}) — raw distribution "
            f"(skewness {self.skewness_raw:.2f})",
            render_series("density", np.round(self.raw_centers, 3), self.raw_density, precision=4),
            f"Fig. 8 ({self.attribute}) — transformed distribution "
            f"(skewness {self.skewness_transformed:.2f})",
            render_series(
                "density",
                np.round(self.transformed_centers, 3),
                self.transformed_density,
                precision=4,
            ),
        ]
        return "\n".join(parts)


def _skewness(values: np.ndarray) -> float:
    centered = values - values.mean()
    std = values.std()
    if std == 0:
        return 0.0
    return float(np.mean(centered**3) / std**3)


#: Histogram bins per panel.
BINS = 40


def _histogram(values: np.ndarray, bins: int, high: float) -> tuple[np.ndarray, np.ndarray]:
    counts, edges = np.histogram(values, bins=bins, range=(0.0, high))
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, counts / values.size


def run_distributions(
    scale: ExperimentScale | None = None,
    attribute: str = "response_time",
) -> DistributionResult:
    """Histogram one attribute's values raw (Fig. 7) and transformed (Fig. 8).

    The raw histogram uses the paper's display cut-offs (10 s for response
    time, 150 kbps for throughput); the transformed histogram spans [0, 1].
    """
    scale = scale if scale is not None else ExperimentScale.quick()
    data = scale.dataset(attribute)
    values = data.observed_values()

    display_cut = 10.0 if attribute in ("response_time", "rt") else 150.0
    raw_centers, raw_density = _histogram(values, BINS, display_cut)

    config = make_amf_config(attribute)
    normalizer = QoSNormalizer(
        alpha=config.alpha,
        value_min=config.value_min,
        value_max=config.value_max,
        floor=config.value_floor,
    )
    transformed = np.asarray(normalizer.normalize(values))
    transformed_centers, transformed_density = _histogram(transformed, BINS, 1.0)

    return DistributionResult(
        attribute=attribute,
        raw_centers=raw_centers,
        raw_density=raw_density,
        transformed_centers=transformed_centers,
        transformed_density=transformed_density,
        skewness_raw=_skewness(values[values <= display_cut]),
        skewness_transformed=_skewness(transformed),
    )


def main() -> None:
    for attribute in ("response_time", "throughput"):
        print(run_distributions(attribute=attribute).to_text())
        print()


if __name__ == "__main__":
    main()
