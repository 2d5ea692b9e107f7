"""Hyper-parameter sensitivity sweeps for AMF (supplementary-style).

The paper's Section V opens with "impact of parameters" among its studied
aspects; the published text details only the transformation (Fig. 11) and
density (Fig. 12), deferring the rest to the supplementary report.  This
module provides the full sweeps: rank ``d``, learning rate ``eta``, EMA
factor ``beta``, and regularization ``lambda``, each against MRE at a fixed
density with every other parameter held at its paper value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets import train_test_split_matrix
from repro.experiments.runner import ExperimentScale, evaluate_amf, make_amf_config
from repro.utils.rng import spawn_children
from repro.utils.tables import render_table

DEFAULT_SWEEPS: dict[str, tuple[float, ...]] = {
    "rank": (2, 5, 10, 20, 40),
    "learning_rate": (0.1, 0.4, 0.8, 1.6, 3.2),
    "beta": (0.0, 0.1, 0.3, 0.6, 1.0),
    "lambda": (0.0, 1e-4, 1e-3, 1e-2, 1e-1),
}


@dataclass
class ParameterImpactResult:
    """MRE per swept value, for one parameter."""

    attribute: str
    parameter: str
    values: tuple[float, ...]
    mre: list[float]

    def to_text(self) -> str:
        rows = [[value, self.mre[k]] for k, value in enumerate(self.values)]
        return render_table(
            [self.parameter, "MRE"],
            rows,
            title=f"Parameter impact ({self.attribute}) — {self.parameter}",
        )


def _config_with(attribute: str, parameter: str, value: float):
    if parameter == "rank":
        return make_amf_config(attribute, rank=int(value))
    if parameter == "learning_rate":
        return make_amf_config(attribute, learning_rate=value)
    if parameter == "beta":
        return make_amf_config(attribute, beta=value)
    if parameter == "lambda":
        return make_amf_config(attribute, lambda_u=value, lambda_s=value)
    raise ValueError(f"unknown parameter {parameter!r}")


def run_parameter_impact(
    scale: ExperimentScale | None = None,
    attribute: str = "response_time",
    parameter: str = "rank",
) -> ParameterImpactResult:
    """Sweep one hyper-parameter over its :data:`DEFAULT_SWEEPS` values,
    holding the rest at paper defaults."""
    scale = scale if scale is not None else ExperimentScale.quick()
    if parameter not in DEFAULT_SWEEPS:
        raise ValueError(
            f"parameter must be one of {sorted(DEFAULT_SWEEPS)}, got {parameter!r}"
        )
    values = DEFAULT_SWEEPS[parameter]
    matrix = scale.dataset(attribute).slice(0)

    mre_series: list[float] = []
    for value in values:
        config = _config_with(attribute, parameter, value)
        rngs = spawn_children(scale.seed, scale.reruns)
        per_run = []
        for rng in rngs:
            train, test = train_test_split_matrix(matrix, 0.30, rng=rng)
            per_run.append(evaluate_amf(train, test, config, rng=rng).metrics["MRE"])
        mre_series.append(float(np.mean(per_run)))
    return ParameterImpactResult(
        attribute=attribute, parameter=parameter, values=tuple(values), mre=mre_series
    )


def run_all_parameters(
    scale: ExperimentScale | None = None, attribute: str = "response_time"
) -> dict[str, ParameterImpactResult]:
    """Sweep every parameter in DEFAULT_SWEEPS."""
    return {
        parameter: run_parameter_impact(scale, attribute=attribute, parameter=parameter)
        for parameter in DEFAULT_SWEEPS
    }


def main() -> None:
    for result in run_all_parameters().values():
        print(result.to_text())
        print()


if __name__ == "__main__":
    main()
