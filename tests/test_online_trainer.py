"""Tests for StreamTrainer (the Algorithm 1 driver) and TrainReport."""

import numpy as np
import pytest

from repro.core import AdaptiveMatrixFactorization, AMFConfig, StreamTrainer
from repro.datasets.schema import QoSRecord
from repro.datasets.stream import QoSStream


def make_records(n=50, n_users=5, n_services=8, seed=0, t0=0.0):
    rng = np.random.default_rng(seed)
    return [
        QoSRecord(
            timestamp=t0 + float(k),
            user_id=int(rng.integers(n_users)),
            service_id=int(rng.integers(n_services)),
            value=float(rng.uniform(0.2, 3.0)),
        )
        for k in range(n)
    ]


class TestConsume:
    def test_counts_arrivals(self):
        model = AdaptiveMatrixFactorization(rng=0)
        report = StreamTrainer(model).consume(make_records(30))
        assert report.arrivals == 30
        assert report.replays == 0
        assert model.updates_applied == 30

    def test_empty_stream(self):
        model = AdaptiveMatrixFactorization(rng=0)
        report = StreamTrainer(model).consume([])
        assert report.arrivals == 0
        assert np.isnan(report.final_error)


class TestReplayUntilConverged:
    def test_converges_on_consistent_data(self):
        model = AdaptiveMatrixFactorization(rng=0)
        trainer = StreamTrainer(model)
        trainer.consume(make_records(100))
        report = trainer.replay_until_converged(now=0.0)
        assert report.converged
        assert report.epochs >= 3  # at least patience + 1
        assert len(report.error_trace) == report.epochs

    def test_error_trace_decreases_overall(self):
        model = AdaptiveMatrixFactorization(rng=0)
        trainer = StreamTrainer(model)
        trainer.consume(make_records(200))
        report = trainer.replay_until_converged(now=0.0)
        assert report.error_trace[-1] < report.error_trace[0]

    def test_max_epochs_cap(self):
        model = AdaptiveMatrixFactorization(rng=0)
        trainer = StreamTrainer(model)
        trainer.tolerance, trainer.min_epochs, trainer.max_epochs = 1e-12, 1, 4
        trainer.patience = 99
        trainer.consume(make_records(50))
        report = trainer.replay_until_converged(now=0.0)
        assert report.epochs == 4
        assert not report.converged

    def test_min_epochs_guards_saddle(self):
        """The plateau check must not fire during the first min_epochs, even
        if early improvements are tiny (the cold-start saddle)."""
        model = AdaptiveMatrixFactorization(rng=0)
        trainer = StreamTrainer(model)
        trainer.min_epochs, trainer.tolerance = 6, 0.99  # everything "stalls"
        trainer.consume(make_records(100))
        report = trainer.replay_until_converged(now=0.0)
        assert report.epochs >= 6

    def test_replay_until_error_warm_model_is_cheap(self):
        """A model already below the target does zero replay epochs."""
        model = AdaptiveMatrixFactorization(rng=0)
        trainer = StreamTrainer(model)
        trainer.process(make_records(200))
        plateau = model.training_error()
        report = trainer.replay_until_error(now=0.0, target_error=plateau * 2.0)
        assert report.epochs == 0
        assert report.converged

    def test_replay_until_error_cold_model_climbs(self):
        model = AdaptiveMatrixFactorization(rng=0)
        trainer = StreamTrainer(model)
        trainer.consume(make_records(200))
        start_error = model.training_error()
        report = trainer.replay_until_error(now=0.0, target_error=start_error / 2.0)
        assert report.epochs >= 1
        assert report.converged
        assert model.training_error() <= start_error / 2.0

    def test_replay_until_error_unreachable_target(self):
        model = AdaptiveMatrixFactorization(rng=0)
        trainer = StreamTrainer(model)
        trainer.consume(make_records(60))
        trainer.max_epochs = 3
        report = trainer.replay_until_error(now=0.0, target_error=1e-12)
        assert report.epochs == 3
        assert not report.converged

    def test_replay_until_error_invalid_target(self):
        model = AdaptiveMatrixFactorization(rng=0)
        with pytest.raises(ValueError):
            StreamTrainer(model).replay_until_error(now=0.0, target_error=0.0)

    def test_empty_store_no_epochs(self):
        model = AdaptiveMatrixFactorization(rng=0)
        report = StreamTrainer(model).replay_until_converged(now=0.0)
        assert report.epochs == 0

    def test_expired_samples_counted_and_dropped(self):
        model = AdaptiveMatrixFactorization(rng=0)
        trainer = StreamTrainer(model)
        trainer.consume(make_records(40, t0=0.0))
        report = trainer.replay_until_converged(now=10_000.0)  # all stale
        assert report.expired > 0
        assert model.n_stored_samples < 40


class _NoOpReplayModel:
    """Stub exposing just what the replay loops touch, with a replay_many
    that never applies a step — the state a real model can only reach
    transiently (every drawn sample expires mid-batch)."""

    n_stored_samples = 10

    def __init__(self):
        self.calls = 0

    def purge_expired(self, now):
        return 0

    def replay_many(self, now, count, kernel=None):
        self.calls += 1
        return 0, count, float("nan")

    def training_error(self):
        return 1.0


class TestNoOpEpochCounting:
    """Regression: a batch that applied zero replay steps is not an epoch.

    Counting such batches inflated epochs-to-converge (the Fig. 13
    efficiency protocol) and could burn the whole max_epochs budget doing
    nothing."""

    def test_replay_until_converged_skips_no_op_epochs(self):
        model = _NoOpReplayModel()
        trainer = StreamTrainer(model)
        report = trainer.replay_until_converged(now=0.0)
        assert report.epochs == 0
        assert report.error_trace == []
        assert model.calls == 1  # one attempt, then stop — not max_epochs

    def test_replay_until_error_skips_no_op_epochs(self):
        model = _NoOpReplayModel()
        trainer = StreamTrainer(model)
        report = trainer.replay_until_error(now=0.0, target_error=0.5)
        assert report.epochs == 0
        assert report.error_trace == []
        assert not report.converged
        assert model.calls == 1


class TestProcess:
    def test_combines_consume_and_replay(self):
        model = AdaptiveMatrixFactorization(rng=0)
        report = StreamTrainer(model).process(make_records(80))
        assert report.arrivals == 80
        assert report.replays > 0
        assert report.wall_seconds > 0

    def test_default_now_is_last_arrival(self):
        """Samples just observed must not expire during the same process()."""
        model = AdaptiveMatrixFactorization(AMFConfig(expiry_seconds=60.0), rng=0)
        records = make_records(50, t0=0.0)  # timestamps 0..49, window 60
        report = StreamTrainer(model).process(records)
        assert report.expired == 0
        assert model.n_stored_samples == len({(r.user_id, r.service_id) for r in records})

    def test_explicit_now_expires(self):
        model = AdaptiveMatrixFactorization(AMFConfig(expiry_seconds=60.0), rng=0)
        trainer = StreamTrainer(model)
        trainer.consume(make_records(50, t0=0.0))
        trainer.replay_until_converged(now=1000.0)
        assert model.n_stored_samples == 0

    def test_accepts_stream_object(self):
        model = AdaptiveMatrixFactorization(rng=0)
        stream = QoSStream(make_records(30))
        report = StreamTrainer(model).process(stream)
        assert report.arrivals == 30

    def test_incremental_processing_cheaper_than_cold(self):
        """Warm continuation takes fewer epochs than the cold start (the
        Fig. 13 property at trainer level)."""
        model = AdaptiveMatrixFactorization(rng=0)
        trainer = StreamTrainer(model)
        cold = trainer.process(make_records(300, seed=1))
        warm = trainer.process(make_records(300, seed=1, t0=1.0))
        assert warm.epochs <= cold.epochs
