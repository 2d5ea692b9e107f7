"""Tests for the AMF model's mechanics: entity management, the sample
store, online updates, expiry, and prediction plumbing.

Learning *quality* is covered separately in test_amf_learning.py.
"""

import numpy as np
import pytest

from repro.core import AdaptiveMatrixFactorization, AMFConfig
from repro.core.amf import _GrowableFactors, _SampleStore
from repro.datasets.schema import QoSRecord


def record(u, s, value, t=0.0):
    return QoSRecord(timestamp=t, user_id=u, service_id=s, value=value)


class TestGrowableFactors:
    def test_rows_initialized_on_demand(self):
        factors = _GrowableFactors(rank=4, init_scale=0.1, rng=np.random.default_rng(0))
        row = factors.row(3)
        assert row.shape == (4,)
        assert len(factors) == 4

    def test_growth_preserves_rows(self):
        factors = _GrowableFactors(rank=3, init_scale=0.1, rng=np.random.default_rng(0))
        first = factors.row(0).copy()
        factors.ensure(200)
        np.testing.assert_array_equal(factors.row(0), first)

    def test_row_is_view(self):
        factors = _GrowableFactors(rank=2, init_scale=0.1, rng=np.random.default_rng(0))
        factors.row(0)[:] = [1.0, 2.0]
        np.testing.assert_array_equal(factors.row(0), [1.0, 2.0])

    def test_reinitialize_changes_row(self):
        factors = _GrowableFactors(rank=8, init_scale=0.1, rng=np.random.default_rng(0))
        before = factors.row(0).copy()
        factors.reinitialize(0)
        assert not np.allclose(factors.row(0), before)

    def test_negative_id_rejected(self):
        factors = _GrowableFactors(rank=2, init_scale=0.1, rng=np.random.default_rng(0))
        with pytest.raises(IndexError):
            factors.row(-1)

    def test_matrix_shape(self):
        factors = _GrowableFactors(rank=5, init_scale=0.1, rng=np.random.default_rng(0))
        factors.ensure(9)
        assert factors.matrix().shape == (10, 5)


class TestSampleStore:
    def test_put_and_get(self):
        store = _SampleStore()
        store.put(1, 2, timestamp=5.0, value=0.7)
        assert store.get(1, 2) == (5.0, 0.7)
        assert len(store) == 1

    def test_put_overwrites_latest(self):
        store = _SampleStore()
        store.put(1, 2, 5.0, 0.7)
        store.put(1, 2, 9.0, 0.9)
        assert store.get(1, 2) == (9.0, 0.9)
        assert len(store) == 1  # still one logical entry

    def test_discard_removes(self):
        store = _SampleStore()
        store.put(1, 2, 5.0, 0.7)
        store.discard(1, 2)
        assert (1, 2) not in store
        assert len(store) == 0

    def test_discard_missing_is_noop(self):
        store = _SampleStore()
        store.discard(9, 9)  # must not raise
        assert len(store) == 0

    def test_swap_remove_keeps_other_keys_pickable(self):
        store = _SampleStore()
        for k in range(5):
            store.put(k, k, 0.0, float(k))
        store.discard(2, 2)
        remaining = {store.random_pick(np.random.default_rng(i))[:2] for i in range(50)}
        assert (2, 2) not in remaining
        assert remaining <= {(0, 0), (1, 1), (3, 3), (4, 4)}

    def test_random_pick_uniformity(self):
        store = _SampleStore()
        for k in range(4):
            store.put(k, 0, 0.0, 1.0)
        rng = np.random.default_rng(0)
        counts = {k: 0 for k in range(4)}
        for __ in range(4000):
            u, *_ = store.random_pick(rng)
            counts[u] += 1
        for count in counts.values():
            assert 800 < count < 1200

    def test_random_pick_empty_raises(self):
        with pytest.raises(LookupError):
            _SampleStore().random_pick(np.random.default_rng(0))


class TestEntityManagement:
    def test_new_entities_registered_on_observe(self):
        model = AdaptiveMatrixFactorization(rng=0)
        model.observe(record(3, 7, 1.0))
        assert model.n_users == 4
        assert model.n_services == 8

    def test_ensure_is_idempotent(self):
        model = AdaptiveMatrixFactorization(rng=0)
        model.ensure_user(2)
        factors_before = model.user_factors()
        model.ensure_user(2)
        np.testing.assert_array_equal(model.user_factors(), factors_before)

    def test_forget_user_resets_state(self):
        model = AdaptiveMatrixFactorization(rng=0)
        for __ in range(20):
            model.observe(record(0, 0, 1.0))
        error_before = model.weights.user_error(0)
        assert error_before < 1.0
        model.forget_user(0)
        assert model.weights.user_error(0) == 1.0
        assert model.n_stored_samples == 0

    def test_forget_service_drops_only_its_samples(self):
        model = AdaptiveMatrixFactorization(rng=0)
        model.observe(record(0, 0, 1.0))
        model.observe(record(0, 1, 1.0))
        model.forget_service(0)
        assert model.n_stored_samples == 1

    def test_predict_unknown_entity_raises(self):
        model = AdaptiveMatrixFactorization(rng=0)
        model.observe(record(0, 0, 1.0))
        with pytest.raises(KeyError):
            model.predict(5, 0)


class TestOnlineUpdate:
    def test_observe_returns_relative_error(self):
        model = AdaptiveMatrixFactorization(rng=0)
        error = model.observe(record(0, 0, 1.0))
        r = model.normalizer.normalize(1.0)
        assert error >= 0
        # First prediction is near sigmoid(~0) = 0.5 with tiny random factors.
        assert error == pytest.approx(abs(r - 0.5) / r, rel=0.2)

    def test_update_moves_prediction_toward_observation(self):
        model = AdaptiveMatrixFactorization(rng=0)
        target = 5.0
        first_error = abs(model.observe(record(0, 0, target)))
        for __ in range(400):
            last_error = model.observe(record(0, 0, target))
        assert last_error < first_error / 10
        assert model.predict(0, 0) == pytest.approx(target, rel=0.15)

    def test_updates_applied_counter(self):
        model = AdaptiveMatrixFactorization(rng=0)
        model.observe(record(0, 0, 1.0))
        model.observe(record(0, 1, 1.0))
        assert model.updates_applied == 2

    def test_simultaneous_update_uses_pre_step_vectors(self):
        """Gradients must both be computed from the old (U, S) pair."""
        config = AMFConfig(lambda_u=0.0, lambda_s=0.0, beta=0.0)
        model = AdaptiveMatrixFactorization(config, rng=1)
        model.ensure_user(0)
        model.ensure_service(0)
        u_old = model._user_factors.row(0).copy()
        s_old = model._service_factors.row(0).copy()
        model.observe(record(0, 0, 1.0))
        u_new = model._user_factors.row(0)
        s_new = model._service_factors.row(0)
        # With beta=0 both credence weights stay 0.5; reconstruct the step.
        r = max(model.normalizer.normalize(1.0), config.normalized_floor)
        x = float(u_old @ s_old)
        g = 1 / (1 + np.exp(-x))
        residual = np.clip((g - r) * g * (1 - g) / r**2, -config.grad_clip, config.grad_clip)
        step = config.learning_rate * 0.5
        np.testing.assert_allclose(u_new, u_old - step * residual * s_old, atol=1e-12)
        np.testing.assert_allclose(s_new, s_old - step * residual * u_old, atol=1e-12)

    def test_grad_clip_bounds_single_step(self):
        """Even a pathological sample cannot move factors unboundedly."""
        config = AMFConfig(grad_clip=1.0, alpha=1.0)  # alpha=1 -> tiny r
        model = AdaptiveMatrixFactorization(config, rng=0)
        model.ensure_user(0)
        model.ensure_service(0)
        u_before = model._user_factors.row(0).copy()
        model.observe(record(0, 0, 0.001))
        delta = np.abs(model._user_factors.row(0) - u_before)
        s_norm = np.abs(model._service_factors.row(0)).max() + 1.0
        assert delta.max() <= config.learning_rate * 1.0 * (s_norm + 1.0)


class TestExpiry:
    def test_fresh_sample_replayed(self):
        model = AdaptiveMatrixFactorization(rng=0)
        model.observe(record(0, 0, 1.0, t=100.0))
        error = model.replay_step(now=500.0)  # age 400 < 900
        assert error is not None
        assert model.n_stored_samples == 1

    def test_stale_sample_discarded(self):
        model = AdaptiveMatrixFactorization(rng=0)
        model.observe(record(0, 0, 1.0, t=100.0))
        error = model.replay_step(now=2000.0)  # age 1900 >= 900
        assert error is None
        assert model.n_stored_samples == 0

    def test_expiry_boundary_is_inclusive(self):
        config = AMFConfig(expiry_seconds=900.0)
        model = AdaptiveMatrixFactorization(config, rng=0)
        model.observe(record(0, 0, 1.0, t=0.0))
        assert model.replay_step(now=900.0) is None  # age == expiry -> obsolete

    def test_replay_empty_store_raises(self):
        model = AdaptiveMatrixFactorization(rng=0)
        with pytest.raises(LookupError):
            model.replay_step(now=0.0)

    def test_replay_many_counts(self):
        model = AdaptiveMatrixFactorization(rng=0)
        model.observe(record(0, 0, 1.0, t=0.0))
        model.observe(record(0, 1, 1.0, t=1000.0))
        applied, expired, mean_error = model.replay_many(now=1200.0, count=50)
        # The t=0 sample expires on first draw; the t=1000 one keeps applying.
        assert expired == 1
        assert applied >= 1
        assert np.isfinite(mean_error)

    def test_replay_many_empty_store(self):
        model = AdaptiveMatrixFactorization(rng=0)
        applied, expired, mean_error = model.replay_many(now=0.0, count=10)
        assert (applied, expired) == (0, 0)
        assert np.isnan(mean_error)

    def test_replay_many_matches_replay_step_semantics(self):
        a = AdaptiveMatrixFactorization(rng=3)
        b = AdaptiveMatrixFactorization(rng=3)
        for model in (a, b):
            for k in range(10):
                model.observe(record(k % 3, k % 5, 1.0 + k, t=0.0))
        applied, expired, __ = a.replay_many(now=100.0, count=30)
        for __ in range(30):
            b.replay_step(now=100.0)
        assert applied == 30 and expired == 0
        np.testing.assert_allclose(a.user_factors(), b.user_factors())


class TestPrediction:
    def test_predict_matrix_matches_pointwise(self):
        model = AdaptiveMatrixFactorization(rng=0)
        for k in range(30):
            model.observe(record(k % 3, k % 4, 0.5 + 0.1 * k))
        matrix = model.predict_matrix()
        assert matrix.shape == (3, 4)
        for u in range(3):
            for s in range(4):
                assert matrix[u, s] == pytest.approx(model.predict(u, s))

    def test_predictions_within_value_range(self):
        model = AdaptiveMatrixFactorization(AMFConfig.for_response_time(), rng=0)
        for k in range(50):
            model.observe(record(k % 5, k % 7, float(k % 19) + 0.1))
        matrix = model.predict_matrix()
        assert np.all(matrix >= 0.0)
        assert np.all(matrix <= 20.0)

    def test_empty_model_predict_matrix(self):
        model = AdaptiveMatrixFactorization(rng=0)
        assert model.predict_matrix().shape == (0, 0)

    def test_training_error_nan_when_empty(self):
        model = AdaptiveMatrixFactorization(rng=0)
        assert np.isnan(model.training_error())

    def test_training_error_decreases_with_training(self):
        model = AdaptiveMatrixFactorization(rng=0)
        rng = np.random.default_rng(0)
        for __ in range(100):
            model.observe(record(int(rng.integers(5)), int(rng.integers(8)), 1.0))
        early = model.training_error()
        model.replay_many(now=0.0, count=2000)
        assert model.training_error() < early

    def test_determinism_given_seed(self):
        def build():
            model = AdaptiveMatrixFactorization(rng=11)
            for k in range(40):
                model.observe(record(k % 4, k % 6, 0.2 * (k % 9) + 0.1))
            model.replay_many(now=0.0, count=100)
            return model.predict_matrix()

        np.testing.assert_array_equal(build(), build())
