"""Adaptation-decision quality (extension beyond the paper's tables).

The paper motivates QoS prediction entirely by its effect on adaptation
decisions — pick the right candidate, avoid wrong SLA calls — but evaluates
only value-level accuracy.  This experiment closes that loop: for each
approach it measures

* **top-1 / top-3 hit rate** — does the predicted-best candidate in a random
  pool fall among the actually best?
* **selection regret** — the actual response-time cost of trusting the
  prediction, in seconds;
* **SLA accuracy** — how often the predicted violation verdict matches the
  actual one.

It also quantifies the paper's framing gap: per-pair time-series predictors
(the prior working-service art, references [6]/[8]) can score only the
pairs they have history for — their *coverage* of candidate decisions is
reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines import EWMAPredictor
from repro.datasets import train_test_split_matrix
from repro.experiments.runner import (
    ExperimentScale,
    evaluate_amf,
    make_amf_config,
    make_baselines,
)
from repro.metrics import selection_regret, sla_confusion, top_k_hit_rate
from repro.utils.rng import spawn_rng
from repro.utils.tables import render_table


@dataclass
class SelectionQualityResult:
    """Per-approach decision metrics plus time-series coverage."""

    attribute: str
    pool_size: int
    n_pools: int
    sla_threshold: float
    metrics: dict[str, dict[str, float]]
    timeseries_coverage: float  # fraction of decisions EWMA could even score

    def to_text(self) -> str:
        names = list(self.metrics)
        columns = ["top-1 hit", "top-3 hit", "regret (s)", "SLA accuracy"]
        rows = [
            [name] + [self.metrics[name][column] for column in columns]
            for name in names
        ]
        table = render_table(
            ["Approach"] + columns,
            rows,
            title=(
                f"Candidate-selection quality ({self.attribute}; pools of "
                f"{self.pool_size}, {self.n_pools} decisions, "
                f"SLA {self.sla_threshold:g})"
            ),
        )
        note = (
            f"per-pair time-series (EWMA) coverage of these decisions: "
            f"{self.timeseries_coverage:.1%} — candidate services have no "
            f"invocation history, which is the gap AMF fills"
        )
        return f"{table}\n{note}"


#: Candidates per decision, decisions drawn, and the SLA bound scored.
POOL_SIZE = 10
N_POOLS = 300
SLA_THRESHOLD = 2.0


def run_selection_quality(
    scale: ExperimentScale | None = None,
    attribute: str = "response_time",
    density: float = 0.10,
) -> SelectionQualityResult:
    """Evaluate candidate-selection decisions for every approach."""
    scale = scale if scale is not None else ExperimentScale.quick()
    rng = spawn_rng(scale.seed)
    matrix = scale.dataset(attribute).slice(0)
    train, test = train_test_split_matrix(matrix, density, rng=rng)
    lower_is_better = attribute in ("response_time", "rt")

    # Dense predictions per approach.
    predictions: dict[str, np.ndarray] = {}
    for name, predictor in make_baselines(attribute, rng=rng).items():
        predictions[name] = predictor.fit(train).predict_matrix()
    __, amf_model = evaluate_amf(
        train, test, make_amf_config(attribute), rng=rng, return_model=True
    )
    predictions["AMF"] = amf_model.predict_matrix()

    # The EWMA working-service predictor sees the same training stream.
    ewma = EWMAPredictor()
    for record in train.records():
        ewma.observe(record)

    # Sample candidate pools among *held-out* (candidate) pairs per user.
    pools: list[tuple[int, np.ndarray]] = []
    ewma_scoreable = 0
    for __ in range(N_POOLS):
        user = int(rng.integers(matrix.n_users))
        candidates = np.nonzero(test.mask[user])[0]
        if candidates.size < POOL_SIZE:
            continue
        pool = rng.choice(candidates, size=POOL_SIZE, replace=False)
        pools.append((user, pool))
        if all(ewma.can_predict(user, int(s)) for s in pool):
            ewma_scoreable += 1

    metrics: dict[str, dict[str, float]] = {}
    for name, predicted in predictions.items():
        top1, top3, regrets, sla_acc = [], [], [], []
        for user, pool in pools:
            scores = predicted[user, pool]
            actual = matrix.values[user, pool]
            top1.append(top_k_hit_rate(scores, actual, k=1, lower_is_better=lower_is_better))
            top3.append(top_k_hit_rate(scores, actual, k=3, lower_is_better=lower_is_better))
            regrets.append(selection_regret(scores, actual, lower_is_better=lower_is_better))
            sla_acc.append(
                sla_confusion(
                    scores, actual, SLA_THRESHOLD, lower_is_better=lower_is_better
                )["accuracy"]
            )
        metrics[name] = {
            "top-1 hit": float(np.mean(top1)),
            "top-3 hit": float(np.mean(top3)),
            "regret (s)": float(np.mean(regrets)),
            "SLA accuracy": float(np.mean(sla_acc)),
        }

    return SelectionQualityResult(
        attribute=attribute,
        pool_size=POOL_SIZE,
        n_pools=len(pools),
        sla_threshold=SLA_THRESHOLD,
        metrics=metrics,
        timeseries_coverage=ewma_scoreable / max(len(pools), 1),
    )


def main() -> None:
    print(run_selection_quality().to_text())


if __name__ == "__main__":
    main()
