"""Fig. 13: convergence time per time slice for UIPCC, PMF, and AMF.

The paper's efficiency claim: offline models (UIPCC, PMF) must retrain from
scratch at every slice, so their cost is flat and high; AMF pays a one-time
cost at slice 0 and then only absorbs each new slice's observations
incrementally, so its per-slice cost collapses after the first slice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import AdaptiveMatrixFactorization, StreamTrainer
from repro.datasets import train_test_split_matrix
from repro.datasets.stream import stream_from_matrix
from repro.experiments.runner import (
    ExperimentScale,
    make_amf_config,
    make_baselines,
)
from repro.utils.rng import spawn_rng
from repro.utils.tables import render_table


@dataclass
class EfficiencyResult:
    """Per-slice wall-clock convergence times, per approach."""

    attribute: str
    seconds: dict[str, list[float]]  # approach -> per-slice seconds

    def to_text(self) -> str:
        names = list(self.seconds)
        n_slices = len(next(iter(self.seconds.values())))
        rows = [
            [t] + [self.seconds[name][t] for name in names] for t in range(n_slices)
        ]
        table = render_table(
            ["Slice"] + names,
            rows,
            precision=3,
            title=f"Fig. 13 ({self.attribute}) — convergence time per slice (s)",
        )
        if n_slices > 1 and "AMF" in self.seconds:
            first = self.seconds["AMF"][0]
            rest = self.seconds["AMF"][1:]
            summary = (
                f"AMF: slice-0 cost {first:.3f}s, later slices mean "
                f"{sum(rest) / len(rest):.3f}s"
            )
            return f"{table}\n{summary}\n{self.to_chart()}"
        return table

    def to_chart(self) -> str:
        """ASCII rendering of the Fig. 13 curves ('' for single slices)."""
        from repro.utils.plots import line_plot

        if len(next(iter(self.seconds.values()))) < 2:
            return ""
        return line_plot(
            dict(self.seconds), height=10, width=58, y_label="seconds vs slice"
        )


#: Slice 0's target training error, as a multiple of its plateau.
TARGET_HEADROOM = 1.15


def run_efficiency(
    scale: ExperimentScale | None = None, density: float = 0.30
) -> EfficiencyResult:
    """Time each approach's per-slice convergence across the slices.

    "Convergence" for the AMF variants uses a time-to-accuracy protocol:
    slice 0 trains to its error plateau and establishes a target training
    error (:data:`TARGET_HEADROOM` times the plateau level); each later slice's
    cost is the time to absorb the slice's stream and get the model back
    under that target.  A warm model re-enters the target after little or
    no replay; a cold model pays the full climb every slice — the paper's
    online-learning claim, measured with the same implementation on both
    sides.
    """
    scale = scale if scale is not None else ExperimentScale.quick()
    attribute = "response_time"
    data = scale.dataset(attribute)
    n_slices = data.n_slices
    rng = spawn_rng(scale.seed)

    seconds: dict[str, list[float]] = {
        "UIPCC": [],
        "PMF": [],
        "AMF (retrain)": [],
        "AMF": [],
    }
    amf_model = AdaptiveMatrixFactorization(make_amf_config(attribute), rng=rng)
    trainer = StreamTrainer(amf_model)
    target_error: float | None = None

    for t in range(n_slices):
        matrix = data.slice(t)
        train, __ = train_test_split_matrix(matrix, density, rng=rng)
        slice_start = t * data.slice_seconds
        slice_end = slice_start + data.slice_seconds

        # Offline baselines retrain from scratch on this slice's data.
        baselines = make_baselines(attribute, rng=rng)
        for name in ("UIPCC", "PMF"):
            started = time.perf_counter()
            baselines[name].fit(train)
            seconds[name].append(time.perf_counter() - started)

        stream = stream_from_matrix(
            train,
            slice_id=t,
            slice_start=slice_start,
            slice_seconds=data.slice_seconds,
            rng=rng,
        )

        if t == 0:
            # Establish the target: full training to the error plateau.
            started = time.perf_counter()
            trainer.process(stream)
            seconds["AMF"].append(time.perf_counter() - started)
            target_error = TARGET_HEADROOM * amf_model.training_error()
            seconds["AMF (retrain)"].append(seconds["AMF"][0])
            continue

        # "AMF (retrain)": same implementation, cold model every slice.
        scratch_model = AdaptiveMatrixFactorization(make_amf_config(attribute), rng=rng)
        scratch_trainer = StreamTrainer(scratch_model)
        started = time.perf_counter()
        scratch_trainer.consume(list(stream))
        scratch_trainer.replay_until_error(slice_end, target_error)
        seconds["AMF (retrain)"].append(time.perf_counter() - started)

        # AMF: the live model absorbs the stream and re-enters the target.
        started = time.perf_counter()
        trainer.consume(stream)
        trainer.replay_until_error(slice_end, target_error)
        seconds["AMF"].append(time.perf_counter() - started)
    return EfficiencyResult(attribute=attribute, seconds=seconds)


def main() -> None:
    print(run_efficiency().to_text())


if __name__ == "__main__":
    main()
