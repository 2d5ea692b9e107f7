"""Tests for the Section V-B metrics: MAE, MRE, NPRE, and helpers.

Each metric is verified against hand-computed values, then hypothesis
checks the invariants (non-negativity, zero iff perfect, scale behavior).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    error_histogram,
    improvement_percent,
    mae,
    mre,
    npre,
    relative_errors,
    score_all,
)
from repro.metrics.errors import RELATIVE_FLOOR


def rmse(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Root Mean Squared Error (not in the paper's tables; common companion)."""
    return float(np.sqrt(np.mean((predicted - actual) ** 2)))


positive_arrays = st.lists(
    st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=40
).map(np.array)


class TestMAE:
    def test_hand_computed(self):
        assert mae(np.array([1.0, 2.0]), np.array([1.5, 1.0])) == pytest.approx(0.75)

    def test_perfect_prediction(self):
        assert mae(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mae(np.array([]), np.array([]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mae(np.array([1.0]), np.array([1.0, 2.0]))

    @given(actual=positive_arrays)
    @settings(max_examples=50)
    def test_nonnegative(self, actual):
        predicted = actual * 1.1
        assert mae(predicted, actual) >= 0


class TestRMSE:
    def test_hand_computed(self):
        assert rmse(np.array([0.0, 2.0]), np.array([0.0, 0.0])) == pytest.approx(np.sqrt(2))

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(0)
        predicted, actual = rng.random(50), rng.random(50)
        assert rmse(predicted, actual) >= mae(predicted, actual) - 1e-12


class TestRelativeErrors:
    def test_hand_computed(self):
        out = relative_errors(np.array([2.0, 9.0]), np.array([1.0, 10.0]))
        np.testing.assert_allclose(out, [1.0, 0.1])

    def test_zero_actual_floored(self):
        out = relative_errors(np.array([1.0]), np.array([0.0]))
        assert out[0] == pytest.approx(1.0 / RELATIVE_FLOOR)

    def test_matrix_input_flattened(self):
        out = relative_errors(np.ones((2, 2)), np.ones((2, 2)) * 2)
        assert out.shape == (4,)


class TestMRE:
    def test_median_not_mean(self):
        # Errors: 0.1, 0.1, 10 -> median 0.1 (mean would be ~3.4).
        predicted = np.array([1.1, 1.1, 11.0])
        actual = np.array([1.0, 1.0, 1.0])
        assert mre(predicted, actual) == pytest.approx(0.1)

    def test_paper_motivating_example(self):
        """Section IV-C-1: prediction (b) is better than (a) on relative
        error even though (a) wins on MAE."""
        actual = np.array([1.0, 100.0])
        prediction_a = np.array([8.0, 99.0])
        prediction_b = np.array([0.9, 92.0])
        assert mae(prediction_a, actual) < mae(prediction_b, actual)
        assert mre(prediction_b, actual) < mre(prediction_a, actual)

    @given(actual=positive_arrays, scale=st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=50)
    def test_scale_invariance(self, actual, scale):
        """Relative metrics don't change when both sides are rescaled."""
        predicted = actual * 1.2
        assert mre(predicted * scale, actual * scale) == pytest.approx(
            mre(predicted, actual)
        )


class TestNPRE:
    def test_90th_percentile(self):
        actual = np.ones(100)
        predicted = np.ones(100)
        predicted[:15] = 2.0  # worst 15% have relative error 1.0
        assert npre(predicted, actual) == pytest.approx(1.0)
        # ...but the worst 5% alone stay below the 90th percentile.
        predicted = np.ones(100)
        predicted[:5] = 2.0
        assert npre(predicted, actual) == pytest.approx(0.0, abs=1e-9)

    def test_custom_percentile(self):
        predicted = np.array([1.0, 1.5, 2.0])
        actual = np.ones(3)
        assert npre(predicted, actual, percentile=50) == pytest.approx(0.5)

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            npre(np.ones(3), np.ones(3), percentile=100)

    def test_npre_at_least_mre(self):
        rng = np.random.default_rng(1)
        predicted, actual = rng.random(60) + 0.5, rng.random(60) + 0.5
        assert npre(predicted, actual) >= mre(predicted, actual)


class TestScoreAll:
    def test_keys(self):
        scores = score_all(np.ones(5), np.ones(5) * 2)
        assert set(scores) == {"MAE", "MRE", "NPRE"}

    def test_consistent_with_individual(self):
        rng = np.random.default_rng(2)
        predicted, actual = rng.random(30) + 0.1, rng.random(30) + 0.1
        scores = score_all(predicted, actual)
        assert scores["MAE"] == mae(predicted, actual)
        assert scores["MRE"] == mre(predicted, actual)
        assert scores["NPRE"] == npre(predicted, actual)


class TestErrorHistogram:
    def test_mass_sums_to_at_most_one(self):
        rng = np.random.default_rng(0)
        predicted, actual = rng.random(200), rng.random(200)
        __, density = error_histogram(predicted, actual)
        assert 0.0 < density.sum() <= 1.0 + 1e-12

    def test_centered_histogram_for_perfect_predictions(self):
        centers, density = error_histogram(np.ones(50), np.ones(50), bins=3)
        assert density[np.argmin(np.abs(centers))] == pytest.approx(1.0)

    def test_out_of_range_mass_dropped(self):
        __, density = error_histogram(
            np.array([100.0]), np.array([0.0]), value_range=(-1, 1)
        )
        assert density.sum() == 0.0

    def test_bin_count(self):
        centers, density = error_histogram(np.ones(5), np.ones(5), bins=17)
        assert centers.shape == (17,) and density.shape == (17,)

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            error_histogram(np.ones(5), np.ones(5), bins=0)


class TestImprovement:
    def test_paper_convention(self):
        # AMF 0.478 vs best other 0.593 -> 19.4% (Table I, RT MRE @ 10%).
        assert improvement_percent(0.593, 0.478) == pytest.approx(19.4, abs=0.05)

    def test_negative_when_worse(self):
        assert improvement_percent(1.0, 1.1) == pytest.approx(-10.0)

    def test_invalid_baseline(self):
        with pytest.raises(ValueError):
            improvement_percent(0.0, 0.5)
