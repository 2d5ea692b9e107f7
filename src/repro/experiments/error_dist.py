"""Fig. 10: distribution of signed prediction errors for UIPCC, PMF, AMF.

The paper plots histograms of ``predicted - actual`` at 10% density: AMF's
mass concentrates around 0 while UIPCC and PMF spread out — the visual
counterpart of the MRE/NPRE advantage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets import train_test_split_matrix
from repro.experiments.runner import (
    ExperimentScale,
    evaluate_amf,
    make_amf_config,
    make_baselines,
    test_entries,
)
from repro.metrics import error_histogram
from repro.utils.rng import spawn_rng
from repro.utils.tables import render_table


@dataclass
class ErrorDistResult:
    """Per-approach signed-error histograms over a shared binning."""

    attribute: str
    centers: np.ndarray
    densities: dict[str, np.ndarray]
    central_mass: dict[str, float]  # fraction of |error| < half a bin from 0

    def to_text(self) -> str:
        names = list(self.densities)
        rows = [
            [float(center)] + [float(self.densities[name][k]) for name in names]
            for k, center in enumerate(self.centers)
        ]
        table = render_table(
            ["error"] + names,
            rows,
            precision=4,
            title=f"Fig. 10 ({self.attribute}) — distribution of prediction errors",
        )
        summary = ", ".join(
            f"{name}: {self.central_mass[name]:.3f}" for name in names
        )
        return f"{table}\nmass within central bin — {summary}"


#: The histogram's bins over the relative-error range it covers.
BINS = 48
VALUE_RANGE = (-3.0, 3.0)


def run_error_dist(
    scale: ExperimentScale | None = None,
    attribute: str = "response_time",
    density: float = 0.10,
) -> ErrorDistResult:
    """Histogram signed prediction errors for UIPCC, PMF, and AMF."""
    scale = scale if scale is not None else ExperimentScale.quick()
    rng = spawn_rng(scale.seed)
    matrix = scale.dataset(attribute).slice(0)
    train, test = train_test_split_matrix(matrix, density, rng=rng)
    rows, cols, actual = test_entries(test)

    predictions: dict[str, np.ndarray] = {}
    baselines = make_baselines(attribute, rng=rng)
    for name in ("UIPCC", "PMF"):
        predictor = baselines[name].fit(train)
        predictions[name] = predictor.predict_entries(rows, cols)
    __, amf_model = evaluate_amf(
        train, test, make_amf_config(attribute), rng=rng, return_model=True
    )
    predictions["AMF"] = amf_model.predict_matrix()[rows, cols]

    centers = None
    densities: dict[str, np.ndarray] = {}
    central_mass: dict[str, float] = {}
    for name, predicted in predictions.items():
        centers, hist = error_histogram(
            predicted, actual, bins=BINS, value_range=VALUE_RANGE
        )
        densities[name] = hist
        central = np.abs(centers) <= (VALUE_RANGE[1] - VALUE_RANGE[0]) / BINS
        central_mass[name] = float(hist[central].sum())
    return ErrorDistResult(
        attribute=attribute,
        centers=centers,
        densities=densities,
        central_mass=central_mass,
    )


def main() -> None:
    for attribute in ("response_time", "throughput"):
        print(run_error_dist(attribute=attribute).to_text())
        print()


if __name__ == "__main__":
    main()
