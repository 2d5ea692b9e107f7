"""Tests for repro.core.weights: EMA error tracking and credence weights.

The invariants under test come straight from Eqs. 12-15 of the paper:
weights are non-negative and sum to one, the error trackers stay positive
and move toward the observed sample error, and new entities start at the
maximal error (so they absorb most of each update).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.weights import AdaptiveWeights, _GrowableErrors

errors = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


class TestGrowableErrors:
    def test_new_ids_get_init_value(self):
        tracker = _GrowableErrors(init_error=1.0)
        assert tracker.get(0) == 1.0
        assert tracker.get(100) == 1.0  # beyond current size: init, no growth

    def test_get_does_not_grow(self):
        """Reads are pure: asking about an unknown id must not allocate
        state for it (a prediction request is not an observation)."""
        tracker = _GrowableErrors(init_error=1.0)
        assert len(tracker) == 0
        tracker.get(10**9)
        assert len(tracker) == 0
        tracker.set(3, 0.25)
        size = len(tracker)
        tracker.get(500)
        assert len(tracker) == size

    def test_get_negative_id_rejected(self):
        tracker = _GrowableErrors()
        with pytest.raises(IndexError):
            tracker.get(-1)

    def test_set_and_get(self):
        tracker = _GrowableErrors()
        tracker.set(3, 0.25)
        assert tracker.get(3) == 0.25

    def test_growth_preserves_existing(self):
        tracker = _GrowableErrors()
        tracker.set(0, 0.5)
        tracker.ensure(500)
        assert tracker.get(0) == 0.5

    def test_reset(self):
        tracker = _GrowableErrors(init_error=1.0)
        tracker.set(1, 0.1)
        tracker.reset(1)
        assert tracker.get(1) == 1.0

    def test_len_tracks_highest_id(self):
        tracker = _GrowableErrors()
        tracker.ensure(4)
        assert len(tracker) == 5

    def test_negative_id_rejected(self):
        tracker = _GrowableErrors()
        with pytest.raises(IndexError):
            tracker.ensure(-1)

    def test_snapshot_is_copy(self):
        tracker = _GrowableErrors()
        tracker.set(0, 0.5)
        snap = tracker.snapshot()
        snap[0] = 99.0
        assert tracker.get(0) == 0.5


class TestCredenceWeights:
    def test_weights_sum_to_one(self):
        weights = AdaptiveWeights()
        w_u, w_s = weights.credence(0, 0)
        assert w_u + w_s == pytest.approx(1.0)

    def test_new_entities_split_evenly(self):
        weights = AdaptiveWeights()
        assert weights.credence(0, 0) == (0.5, 0.5)

    def test_inaccurate_side_gets_more_weight(self):
        """An inaccurate user moves a lot w.r.t. an accurate service (paper
        Section IV-C-3)."""
        weights = AdaptiveWeights()
        weights.register_user(0)
        weights.register_service(0)
        # Make the service accurate (error 0.01), keep the user at 1.0.
        weights._service_errors.set(0, 0.01)
        w_u, w_s = weights.credence(0, 0)
        assert w_u > 0.9
        assert w_s < 0.1

    def test_both_converged_split_evenly(self):
        weights = AdaptiveWeights()
        weights._user_errors.set(0, 0.0)
        weights._service_errors.set(0, 0.0)
        assert weights.credence(0, 0) == (0.5, 0.5)

    @given(e_u=errors, e_s=errors)
    @settings(max_examples=200)
    def test_weights_valid_for_any_errors(self, e_u, e_s):
        weights = AdaptiveWeights()
        weights._user_errors.set(0, e_u)
        weights._service_errors.set(0, e_s)
        w_u, w_s = weights.credence(0, 0)
        assert 0.0 <= w_u <= 1.0
        assert 0.0 <= w_s <= 1.0
        assert w_u + w_s == pytest.approx(1.0)


class TestObserve:
    def test_returns_pre_update_weights(self):
        weights = AdaptiveWeights(beta=0.3)
        expected = weights.credence(0, 0)
        returned = weights.observe(0, 0, sample_error=0.5)
        assert returned == expected

    def test_ema_moves_toward_sample_error(self):
        weights = AdaptiveWeights(beta=0.3)
        before = weights.user_error(0)
        weights.observe(0, 0, sample_error=0.0)
        after = weights.user_error(0)
        assert after < before  # error 0 pulls the tracker down

    def test_ema_formula_exact(self):
        """Eqs. 13-14 verified numerically."""
        weights = AdaptiveWeights(beta=0.4)
        weights._user_errors.set(2, 0.8)
        weights._service_errors.set(3, 0.2)
        w_u = 0.8 / 1.0
        w_s = 0.2 / 1.0
        weights.observe(2, 3, sample_error=0.5)
        assert weights.user_error(2) == pytest.approx(
            0.4 * w_u * 0.5 + (1 - 0.4 * w_u) * 0.8
        )
        assert weights.service_error(3) == pytest.approx(
            0.4 * w_s * 0.5 + (1 - 0.4 * w_s) * 0.2
        )

    def test_negative_error_rejected(self):
        weights = AdaptiveWeights()
        with pytest.raises(ValueError, match="non-negative"):
            weights.observe(0, 0, sample_error=-0.1)

    @given(samples=st.lists(errors, min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_trackers_stay_in_convex_hull(self, samples):
        """EMA keeps each tracker inside [min(seen, init), max(seen, init)]."""
        weights = AdaptiveWeights(beta=0.3, init_error=1.0)
        for sample in samples:
            weights.observe(0, 0, sample)
        low = min(min(samples), 1.0)
        high = max(max(samples), 1.0)
        assert low - 1e-12 <= weights.user_error(0) <= high + 1e-12
        assert low - 1e-12 <= weights.service_error(0) <= high + 1e-12

    def test_repeated_zero_error_converges_to_zero(self):
        weights = AdaptiveWeights(beta=0.5)
        for __ in range(200):
            weights.observe(0, 0, 0.0)
        assert weights.user_error(0) < 1e-3

    def test_reset_user_and_service(self):
        weights = AdaptiveWeights()
        weights.observe(0, 0, 0.0)
        weights.reset_user(0)
        weights.reset_service(0)
        assert weights.user_error(0) == 1.0
        assert weights.service_error(0) == 1.0

    def test_beta_zero_freezes_errors(self):
        weights = AdaptiveWeights(beta=0.0)
        weights.observe(0, 0, 0.0)
        assert weights.user_error(0) == 1.0

    def test_counts(self):
        weights = AdaptiveWeights()
        weights.register_user(4)
        weights.register_service(9)
        assert weights.n_users == 5
        assert weights.n_services == 10

    def test_invalid_beta_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveWeights(beta=1.5)


class TestReadPathPurity:
    """Regression: read-only queries must not grow the trackers.

    ``user_error``/``service_error``/``credence`` are called on the
    prediction path; before the fix an unknown-id read allocated tracker
    rows, so merely *asking* about entity 10**6 grew state by megabytes."""

    def test_user_error_does_not_register(self):
        weights = AdaptiveWeights(init_error=1.0)
        assert weights.user_error(999) == 1.0
        assert weights.n_users == 0

    def test_service_error_does_not_register(self):
        weights = AdaptiveWeights(init_error=1.0)
        assert weights.service_error(999) == 1.0
        assert weights.n_services == 0

    def test_credence_does_not_register(self):
        weights = AdaptiveWeights()
        assert weights.credence(12345, 67890) == (0.5, 0.5)
        assert weights.n_users == 0
        assert weights.n_services == 0

    def test_observe_still_registers(self):
        weights = AdaptiveWeights()
        weights.observe(4, 7, sample_error=0.5)
        assert weights.n_users == 5
        assert weights.n_services == 8
