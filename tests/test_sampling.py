"""Tests for density masking and train/test splitting (+ hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.sampling import (
    mask_matrix_to_density,
    split_entities,
    train_test_split_matrix,
)
from repro.datasets.schema import QoSMatrix
from repro.utils.rng import spawn_rng
from repro.utils.validation import check_fraction


def split_observed(
    matrix: QoSMatrix,
    fraction: float,
    rng: "int | np.random.Generator | None" = None,
) -> tuple[QoSMatrix, QoSMatrix]:
    """Split observed entries by a fraction *of the observed entries*
    (rather than of the full matrix size).  Useful for generic holdout."""
    check_fraction("fraction", fraction)
    rng = spawn_rng(rng)
    rows, cols = matrix.observed_indices()
    n_first = int(round(fraction * rows.size))
    order = rng.permutation(rows.size)
    first_mask = np.zeros(matrix.shape, dtype=bool)
    second_mask = np.zeros(matrix.shape, dtype=bool)
    first_idx = order[:n_first]
    second_idx = order[n_first:]
    first_mask[rows[first_idx], cols[first_idx]] = True
    second_mask[rows[second_idx], cols[second_idx]] = True
    return (
        QoSMatrix(values=matrix.values.copy(), mask=first_mask),
        QoSMatrix(values=matrix.values.copy(), mask=second_mask),
    )


def full_matrix(n_users=20, n_services=30, seed=0):
    rng = np.random.default_rng(seed)
    return QoSMatrix.dense(rng.uniform(0.1, 5.0, size=(n_users, n_services)))


class TestMaskToDensity:
    def test_target_density_hit(self):
        matrix = full_matrix()
        masked = mask_matrix_to_density(matrix, 0.25, rng=0)
        assert masked.mask.sum() == round(0.25 * matrix.values.size)

    def test_only_observed_entries_kept(self):
        matrix = full_matrix()
        matrix.mask[:, ::2] = False  # half the columns unobserved
        masked = mask_matrix_to_density(matrix, 0.4, rng=0)
        assert not np.any(masked.mask & ~matrix.mask)

    def test_density_capped_by_available(self):
        matrix = full_matrix()
        matrix.mask[:] = False
        matrix.mask[0, :5] = True
        masked = mask_matrix_to_density(matrix, 0.9, rng=0)
        assert masked.mask.sum() == 5  # cannot invent observations

    def test_values_unchanged(self):
        matrix = full_matrix()
        masked = mask_matrix_to_density(matrix, 0.3, rng=0)
        np.testing.assert_array_equal(masked.values, matrix.values)

    def test_deterministic_given_seed(self):
        matrix = full_matrix()
        a = mask_matrix_to_density(matrix, 0.3, rng=5)
        b = mask_matrix_to_density(matrix, 0.3, rng=5)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError):
            mask_matrix_to_density(full_matrix(), 0.0)
        with pytest.raises(ValueError):
            mask_matrix_to_density(full_matrix(), 1.5)

    @given(density=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50)
    def test_density_approximation_property(self, density):
        matrix = full_matrix(10, 12)
        masked = mask_matrix_to_density(matrix, density, rng=0)
        assert abs(masked.mask.sum() - density * 120) <= 1


class TestTrainTestSplit:
    def test_partition_of_observed(self):
        matrix = full_matrix()
        train, test = train_test_split_matrix(matrix, 0.3, rng=0)
        assert not np.any(train.mask & test.mask)  # disjoint
        np.testing.assert_array_equal(train.mask | test.mask, matrix.mask)

    def test_paper_protocol_density(self):
        matrix = full_matrix()
        train, __ = train_test_split_matrix(matrix, 0.1, rng=0)
        assert train.density == pytest.approx(0.1, abs=0.005)

    def test_sparse_input_respected(self):
        matrix = full_matrix()
        matrix.mask[(matrix.values > 2.5)] = False
        train, test = train_test_split_matrix(matrix, 0.2, rng=1)
        assert not np.any(train.mask & ~matrix.mask)
        assert not np.any(test.mask & ~matrix.mask)


class TestSplitObserved:
    def test_fraction_of_observed(self):
        matrix = full_matrix()
        first, second = split_observed(matrix, 0.25, rng=0)
        assert first.mask.sum() == round(0.25 * matrix.mask.sum())
        assert first.mask.sum() + second.mask.sum() == matrix.mask.sum()

    def test_disjoint(self):
        first, second = split_observed(full_matrix(), 0.5, rng=0)
        assert not np.any(first.mask & second.mask)


class TestSplitEntities:
    def test_counts(self):
        existing, new = split_entities(100, 0.8, rng=0)
        assert len(existing) == 80
        assert len(new) == 20

    def test_partition(self):
        existing, new = split_entities(50, 0.6, rng=1)
        combined = np.sort(np.concatenate([existing, new]))
        np.testing.assert_array_equal(combined, np.arange(50))

    def test_sorted_output(self):
        existing, new = split_entities(30, 0.5, rng=2)
        assert np.all(np.diff(existing) > 0)
        assert np.all(np.diff(new) > 0)

    def test_deterministic(self):
        a = split_entities(40, 0.7, rng=3)
        b = split_entities(40, 0.7, rng=3)
        np.testing.assert_array_equal(a[0], b[0])
