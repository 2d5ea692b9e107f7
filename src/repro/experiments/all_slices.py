"""Table I over *all* time slices (the paper's supplementary report).

The published Table I reports the first time slice; the supplementary
report extends it across all 64 slices.  This experiment reproduces that:
the offline baselines are refit per slice, the AMF model runs *online*
through the slices (absorbing each slice's training stream into the live
model), and per-slice test metrics are averaged.

Running AMF online across slices — rather than resetting it per slice — is
the operationally honest protocol and slightly *helps* AMF at later slices
(it has history), which is exactly the paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import AdaptiveMatrixFactorization, StreamTrainer
from repro.datasets import train_test_split_matrix
from repro.datasets.stream import stream_from_matrix
from repro.experiments.runner import (
    ExperimentScale,
    make_amf_config,
    make_baselines,
    test_entries,
)
from repro.metrics import score_all
from repro.utils.rng import spawn_rng
from repro.utils.tables import render_table

METRICS = ["MAE", "MRE", "NPRE"]


@dataclass
class AllSlicesResult:
    """Per-slice metric series and their averages, per approach."""

    attribute: str
    density: float
    per_slice: dict[str, list[dict[str, float]]] = field(default_factory=dict)

    def average(self, approach: str, metric: str) -> float:
        return float(np.mean([s[metric] for s in self.per_slice[approach]]))

    def series(self, approach: str, metric: str) -> list[float]:
        return [s[metric] for s in self.per_slice[approach]]

    def to_text(self) -> str:
        approaches = list(self.per_slice)
        rows = [
            [name] + [self.average(name, metric) for metric in METRICS]
            for name in approaches
        ]
        average_table = render_table(
            ["Approach"] + METRICS,
            rows,
            title=(
                f"Table I over all slices ({self.attribute}, density "
                f"{self.density:.0%}) — averages"
            ),
        )
        n_slices = len(next(iter(self.per_slice.values())))
        series_rows = [
            [t] + [self.per_slice[name][t]["MRE"] for name in approaches]
            for t in range(n_slices)
        ]
        series_table = render_table(
            ["Slice"] + [f"{name} MRE" for name in approaches],
            series_rows,
            title="per-slice MRE",
        )
        return f"{average_table}\n\n{series_table}"


def run_all_slices(
    scale: ExperimentScale | None = None,
    attribute: str = "response_time",
    density: float = 0.10,
) -> AllSlicesResult:
    """Evaluate every approach on every slice; AMF runs online throughout."""
    scale = scale if scale is not None else ExperimentScale.quick()
    data = scale.dataset(attribute)
    rng = spawn_rng(scale.seed)
    wanted = ["UIPCC", "PMF", "AMF"]

    result = AllSlicesResult(attribute=attribute, density=density)
    for name in wanted:
        result.per_slice[name] = []

    amf_model = AdaptiveMatrixFactorization(make_amf_config(attribute), rng=rng)
    amf_model.ensure_user(data.n_users - 1)
    amf_model.ensure_service(data.n_services - 1)
    trainer = StreamTrainer(amf_model)

    for t in range(data.n_slices):
        matrix = data.slice(t)
        train, test = train_test_split_matrix(matrix, density, rng=rng)
        rows, cols, actual = test_entries(test)

        baselines = make_baselines(attribute, rng=rng)
        for name, predictor in baselines.items():
            if name not in wanted:
                continue
            predictor.fit(train)
            result.per_slice[name].append(
                score_all(predictor.predict_entries(rows, cols), actual)
            )

        if "AMF" in wanted:
            stream = stream_from_matrix(
                train,
                slice_id=t,
                slice_start=t * data.slice_seconds,
                slice_seconds=data.slice_seconds,
                rng=rng,
            )
            trainer.process(stream)
            predicted = amf_model.predict_matrix()[rows, cols]
            result.per_slice["AMF"].append(score_all(predicted, actual))
    return result


def main() -> None:
    print(run_all_slices().to_text())


if __name__ == "__main__":
    main()
