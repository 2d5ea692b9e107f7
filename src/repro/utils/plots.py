"""Terminal plots: render figure series as ASCII charts.

The paper's figures are curves; the experiment harness prints their
underlying series as tables (``utils.tables``), and :func:`line_plot`
additionally renders them as a quick terminal chart so the *shape* is
visible at a glance in benchmark output.  Pure text, no dependencies.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def line_plot(
    series: "dict[str, Sequence[float]]",
    height: int = 10,
    width: int = 60,
    y_label: str = "",
) -> str:
    """Plot one or more equal-length series as an ASCII line chart.

    Each series gets a marker (``*``, ``o``, ``x`` ...); points are scaled
    into a ``height`` x ``width`` grid with a shared y-range.  Returns the
    chart with a y-axis scale and a legend.
    """
    if not series:
        raise ValueError("no series to plot")
    lengths = {len(values) for values in series.values()}
    if len(lengths) != 1:
        raise ValueError(f"series lengths differ: {lengths}")
    n_points = lengths.pop()
    if n_points < 2:
        raise ValueError("need at least two points to plot")
    if height < 2 or width < 2:
        raise ValueError("height and width must each be >= 2")

    markers = "*ox+#@%&"
    all_values = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    finite = all_values[np.isfinite(all_values)]
    if finite.size == 0:
        raise ValueError("no finite values to plot")
    low, high = float(finite.min()), float(finite.max())
    if high == low:
        high = low + 1.0

    grid = [[" "] * width for __ in range(height)]
    for index, (__, values) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        values = np.asarray(values, dtype=float)
        for k, value in enumerate(values):
            if not np.isfinite(value):
                continue
            col = round(k * (width - 1) / (n_points - 1))
            row = round((value - low) / (high - low) * (height - 1))
            grid[height - 1 - row][col] = marker

    lines: list[str] = []
    label_width = max(len(f"{high:.3g}"), len(f"{low:.3g}"))
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = f"{high:.3g}".rjust(label_width)
        elif row_index == height - 1:
            label = f"{low:.3g}".rjust(label_width)
        else:
            label = " " * label_width
        lines.append(f"{label} |{''.join(row)}|")
    legend = "   ".join(
        f"{markers[index % len(markers)]} {name}" for index, name in enumerate(series)
    )
    lines.append(f"{' ' * label_width}  {y_label}  [{legend}]")
    return "\n".join(lines)


