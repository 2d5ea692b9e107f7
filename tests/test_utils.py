"""Tests for repro.utils: RNG management, validation, table rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import spawn_children, spawn_rng
from repro.utils.tables import render_series, render_table
from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_probability,
    check_shape_match,
)


def check_nonnegative_int(name: str, value: int) -> int:
    """Require ``value`` to be a non-negative integer; return it."""
    if int(value) != value or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


class TestSpawnRng:
    def test_int_seed_is_deterministic(self):
        a = spawn_rng(42).random(5)
        b = spawn_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.allclose(spawn_rng(1).random(5), spawn_rng(2).random(5))

    def test_generator_passes_through(self):
        gen = np.random.default_rng(0)
        assert spawn_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(spawn_rng(None), np.random.Generator)

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        assert isinstance(spawn_rng(seq), np.random.Generator)


class TestSpawnChildren:
    def test_children_count(self):
        assert len(spawn_children(0, 5)) == 5

    def test_children_are_independent(self):
        a, b = spawn_children(0, 2)
        assert not np.allclose(a.random(10), b.random(10))

    def test_reproducible_across_calls(self):
        first = [g.random(3) for g in spawn_children(9, 3)]
        second = [g.random(3) for g in spawn_children(9, 3)]
        for x, y in zip(first, second):
            np.testing.assert_array_equal(x, y)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            spawn_children(0, -1)

    def test_zero_children(self):
        assert spawn_children(0, 0) == []


class TestValidation:
    def test_check_positive_accepts(self):
        assert check_positive("x", 0.5) == 0.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_check_positive_rejects(self, bad):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", bad)

    def test_check_fraction_accepts_one(self):
        assert check_fraction("d", 1.0) == 1.0

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.1, float("nan")])
    def test_check_fraction_rejects(self, bad):
        with pytest.raises(ValueError):
            check_fraction("d", bad)

    def test_check_probability_bounds(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0
        with pytest.raises(ValueError):
            check_probability("p", 1.01)

    def test_check_shape_match(self):
        check_shape_match("a", np.zeros((2, 3)), "b", np.ones((2, 3)))
        with pytest.raises(ValueError, match="same shape"):
            check_shape_match("a", np.zeros((2, 3)), "b", np.ones((3, 2)))

    def test_check_nonnegative_int(self):
        assert check_nonnegative_int("n", 3) == 3
        assert check_nonnegative_int("n", 0) == 0
        with pytest.raises(ValueError):
            check_nonnegative_int("n", -1)
        with pytest.raises(ValueError):
            check_nonnegative_int("n", 2.5)


class TestRenderTable:
    def test_basic_layout(self):
        out = render_table(["a", "bb"], [[1, 2.5], [10, 3.25]])
        lines = out.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert "a" in lines[0] and "bb" in lines[0]
        assert "2.500" in out and "3.250" in out

    def test_title_prepended(self):
        out = render_table(["x"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_precision_respected(self):
        out = render_table(["x"], [[1.23456]], precision=1)
        assert "1.2" in out and "1.23" not in out

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError, match="headers"):
            render_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        out = render_table(["a"], [])
        assert "a" in out

    def test_strings_pass_through(self):
        out = render_table(["name"], [["UPCC"]])
        assert "UPCC" in out


class TestRenderSeries:
    def test_series_layout(self):
        out = render_series("y", [0, 1], [1.5, 2.5])
        assert "1.500" in out and "2.500" in out

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="x-values"):
            render_series("y", [0, 1], [1.0])
