"""Fig. 14: scalability and robustness under user/service churn.

The paper's protocol (Section V-G): train AMF on a random 80% of users and
services until convergence, then inject the remaining 20% as *new* entities
and keep training online.  Plot MRE over wall-clock time, separately for
(a) entries among existing entities and (b) entries touching new entities.
Expected shape: the new-entity error drops rapidly after the join while the
existing-entity error stays flat — adaptive weights shield converged
factors from unconverged newcomers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import AdaptiveMatrixFactorization
from repro.datasets import train_test_split_matrix
from repro.datasets.sampling import split_entities
from repro.datasets.schema import QoSMatrix
from repro.datasets.stream import stream_from_matrix
from repro.experiments.runner import ExperimentScale, make_amf_config
from repro.metrics import mre
from repro.utils.rng import spawn_rng
from repro.utils.tables import render_table


@dataclass
class ScalabilityCheckpoint:
    """One point on the Fig. 14 curves."""

    wall_seconds: float
    updates: int
    mre_existing: float
    mre_new: float  # NaN before the join


@dataclass
class ScalabilityResult:
    """Checkpoint series plus the join moment."""

    attribute: str
    join_wall_seconds: float
    join_updates: int
    checkpoints: list[ScalabilityCheckpoint] = field(default_factory=list)

    def to_text(self) -> str:
        rows = [
            [
                round(cp.wall_seconds, 3),
                cp.updates,
                cp.mre_existing,
                cp.mre_new if np.isfinite(cp.mre_new) else float("nan"),
            ]
            for cp in self.checkpoints
        ]
        table = render_table(
            ["time (s)", "updates", "MRE existing", "MRE new"],
            rows,
            precision=3,
            title=f"Fig. 14 ({self.attribute}) — MRE under churn "
            f"(20% join at t={self.join_wall_seconds:.2f}s)",
        )
        return f"{table}\n{self.to_chart()}"

    def to_chart(self) -> str:
        """ASCII rendering of the Fig. 14 MRE timelines ('' when too short)."""
        from repro.utils.plots import line_plot

        if len(self.checkpoints) < 2:
            return ""
        return line_plot(
            {
                "existing": [cp.mre_existing for cp in self.checkpoints],
                "new": [cp.mre_new for cp in self.checkpoints],
            },
            height=10,
            width=58,
            y_label="MRE vs checkpoint",
        )

    def existing_drift(self) -> float:
        """Change in existing-entity MRE from just before the join to the end
        (near zero = robust to churn)."""
        before = [cp for cp in self.checkpoints if cp.updates <= self.join_updates]
        after = [cp for cp in self.checkpoints if cp.updates > self.join_updates]
        if not before or not after:
            return float("nan")
        return after[-1].mre_existing - before[-1].mre_existing

    def new_entity_improvement(self) -> float:
        """Drop in new-entity MRE from its first post-join checkpoint to the
        end (large = new entities integrate quickly)."""
        post = [cp for cp in self.checkpoints if np.isfinite(cp.mre_new)]
        if len(post) < 2:
            return float("nan")
        return post[0].mre_new - post[-1].mre_new


def _restrict(matrix: QoSMatrix, users: np.ndarray, services: np.ndarray) -> QoSMatrix:
    """Zero the mask outside the given user/service id sets."""
    keep = np.zeros(matrix.shape, dtype=bool)
    keep[np.ix_(users, services)] = True
    return QoSMatrix(values=matrix.values.copy(), mask=matrix.mask & keep)


def _mre_on(model: AdaptiveMatrixFactorization, test: QoSMatrix) -> float:
    rows, cols = test.observed_indices()
    if rows.size == 0:
        return float("nan")
    predicted = model.predict_matrix()[rows, cols]
    return mre(predicted, test.values[rows, cols])


#: The share of users and services present from the start (the paper's 80%).
EXISTING_FRACTION = 0.8
#: Replay steps after each arrival, and epochs over the warm-up stream and
#: over the post-join stream.
REPLAYS_PER_ARRIVAL = 3
WARMUP_EPOCHS = 30
POST_JOIN_EPOCHS = 30


def run_scalability(
    scale: ExperimentScale | None = None,
    density: float = 0.30,
    checkpoint_updates: int = 2000,
) -> ScalabilityResult:
    """Run the Fig. 14 churn experiment and collect the MRE timelines."""
    scale = scale if scale is not None else ExperimentScale.quick()
    attribute = "response_time"
    rng = spawn_rng(scale.seed)
    matrix = scale.dataset(attribute).slice(0)
    train, test = train_test_split_matrix(matrix, density, rng=rng)

    # The paper's churn: the existing 80% are present from the start, the
    # rest join at once.
    existing_users, new_users = split_entities(matrix.n_users, EXISTING_FRACTION, rng)
    existing_services, new_services = split_entities(
        matrix.n_services, EXISTING_FRACTION, rng
    )

    train_existing = _restrict(train, existing_users, existing_services)
    # Everything in train that touches a new entity arrives after the join.
    new_mask = train.mask & ~train_existing.mask
    train_new = QoSMatrix(values=train.values.copy(), mask=new_mask)
    test_existing = _restrict(test, existing_users, existing_services)
    test_new = QoSMatrix(values=test.values.copy(), mask=test.mask & ~test_existing.mask)

    model = AdaptiveMatrixFactorization(make_amf_config(attribute), rng=rng)
    result = ScalabilityResult(attribute=attribute, join_wall_seconds=0.0, join_updates=0)
    started = time.perf_counter()
    next_checkpoint = checkpoint_updates

    def checkpoint(include_new: bool) -> None:
        result.checkpoints.append(
            ScalabilityCheckpoint(
                wall_seconds=time.perf_counter() - started,
                updates=model.updates_applied,
                mre_existing=_mre_on(model, test_existing),
                mre_new=_mre_on(model, test_new) if include_new else float("nan"),
            )
        )

    def drive(stream_records, epochs: int, include_new: bool) -> None:
        nonlocal next_checkpoint
        for record in stream_records:
            model.observe(record)
            for __ in range(REPLAYS_PER_ARRIVAL):
                model.replay_step(now=0.0)
            if model.updates_applied >= next_checkpoint:
                checkpoint(include_new)
                next_checkpoint += checkpoint_updates
        for __ in range(epochs):
            for __ in range(max(model.n_stored_samples, 1)):
                model.replay_step(now=0.0)
                if model.updates_applied >= next_checkpoint:
                    checkpoint(include_new)
                    next_checkpoint += checkpoint_updates

    # Phase 1: warm up on existing entities only.
    warmup_stream = stream_from_matrix(train_existing, rng=rng)
    drive(warmup_stream, WARMUP_EPOCHS, include_new=False)
    checkpoint(include_new=False)
    result.join_wall_seconds = time.perf_counter() - started
    result.join_updates = model.updates_applied

    # Phase 2: the remaining 20% of users and services join.
    join_stream = stream_from_matrix(train_new, rng=rng)
    drive(join_stream, POST_JOIN_EPOCHS, include_new=True)
    checkpoint(include_new=True)
    return result


def main() -> None:
    result = run_scalability()
    print(result.to_text())
    print(
        f"existing-entity MRE drift after join: {result.existing_drift():+.4f}; "
        f"new-entity MRE improvement: {result.new_entity_improvement():.4f}"
    )


if __name__ == "__main__":
    main()
