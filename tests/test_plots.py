"""Tests for the ASCII plotting helpers."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pytest

from repro.utils.plots import line_plot

#: Characters from low to high for bar rendering.
_BARS = " .:-=+*#%@"


def bar_histogram(
    centers: Sequence[float],
    heights: Sequence[float],
    width: int = 60,
    title: str | None = None,
) -> str:
    """Render a histogram as one line of density glyphs per ~bin group.

    Bins are resampled onto ``width`` columns; each column's glyph encodes
    the (max-normalized) density, giving a compact one-line shape preview
    plus the axis bounds.
    """
    centers = np.asarray(centers, dtype=float)
    heights = np.asarray(heights, dtype=float)
    if centers.shape != heights.shape or centers.size == 0:
        raise ValueError("centers and heights must be equal-length, non-empty")
    if np.any(heights < 0):
        raise ValueError("histogram heights must be non-negative")
    columns = np.interp(
        np.linspace(0, centers.size - 1, width), np.arange(centers.size), heights
    )
    peak = columns.max()
    if peak > 0:
        glyphs = "".join(
            _BARS[min(int(value / peak * (len(_BARS) - 1)), len(_BARS) - 1)]
            for value in columns
        )
    else:
        glyphs = " " * width
    lines = []
    if title:
        lines.append(title)
    lines.append(f"|{glyphs}|")
    lines.append(f"{centers[0]:<12.4g}{' ' * max(width - 24, 0)}{centers[-1]:>12.4g}")
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """A one-line sparkline of a series (utility for status output)."""
    values = np.asarray(values, dtype=float)
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        raise ValueError("no finite values")
    low, high = float(finite.min()), float(finite.max())
    span = (high - low) or 1.0
    blocks = "▁▂▃▄▅▆▇█"
    out = []
    for value in values:
        if not np.isfinite(value):
            out.append(" ")
        else:
            out.append(blocks[min(int((value - low) / span * (len(blocks) - 1)), 7)])
    return "".join(out)


class TestLinePlot:
    def test_basic_render(self):
        out = line_plot({"a": [0, 1, 2, 3]}, height=4, width=20)
        lines = out.splitlines()
        assert len(lines) == 5  # 4 rows + legend
        assert "* a" in lines[-1]

    def test_extremes_on_correct_rows(self):
        out = line_plot({"a": [0.0, 10.0]}, height=5, width=10)
        lines = out.splitlines()
        assert "*" in lines[0]  # max on top row
        assert "*" in lines[-2]  # min on bottom data row

    def test_multiple_series_markers(self):
        out = line_plot({"a": [0, 1], "b": [1, 0]}, height=4, width=10)
        assert "*" in out and "o" in out

    def test_nan_points_skipped(self):
        out = line_plot({"a": [0.0, float("nan"), 2.0]}, height=4, width=12)
        assert "*" in out

    def test_constant_series_ok(self):
        out = line_plot({"a": [1.0, 1.0, 1.0]}, height=3, width=9)
        assert "*" in out

    @pytest.mark.parametrize(
        "series,match",
        [
            ({}, "no series"),
            ({"a": [1.0]}, "two points"),
            ({"a": [1.0, 2.0], "b": [1.0]}, "lengths"),
            ({"a": [float("nan")] * 3}, "two points|finite"),
        ],
    )
    def test_invalid_inputs(self, series, match):
        with pytest.raises(ValueError, match=match):
            line_plot(series, height=4, width=10)

    def test_tiny_dimensions_rejected(self):
        with pytest.raises(ValueError):
            line_plot({"a": [0, 1]}, height=1, width=10)


class TestBarHistogram:
    def test_peak_uses_densest_glyph(self):
        centers = np.linspace(0, 1, 10)
        heights = np.zeros(10)
        heights[5] = 1.0
        out = bar_histogram(centers, heights, width=30)
        assert "@" in out

    def test_axis_bounds_printed(self):
        out = bar_histogram([0.0, 0.5, 1.0], [1, 2, 1], width=30)
        assert "0" in out and "1" in out

    def test_empty_heights_render_blank(self):
        out = bar_histogram([0.0, 1.0], [0.0, 0.0], width=10)
        assert "|          |" in out

    def test_negative_heights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            bar_histogram([0.0, 1.0], [1.0, -1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bar_histogram([0.0, 1.0], [1.0])


class TestSparkline:
    def test_length_preserved(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_monotone_series_monotone_blocks(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line == "▁▂▃▄▅▆▇█"

    def test_nan_rendered_as_space(self):
        assert " " in sparkline([1.0, float("nan"), 2.0])

    def test_all_nan_rejected(self):
        with pytest.raises(ValueError):
            sparkline([float("nan")])

    def test_constant_series(self):
        assert sparkline([2.0, 2.0]) == "▁▁"
