"""Plain-text charts for figure series (no plotting dependencies required).

The benchmark drivers return flat rows (one per data point); the paper shows
them as line charts with the process count on a logarithmic x-axis and one
line per scheme/threshold.  This module renders the same series as ASCII
charts so that the CLI and the benchmark reports can show the *shape* of
every figure directly in a terminal or a text file.

Two primitives are provided:

* :func:`line_chart` — multiple named series over a shared x-axis, one marker
  character per series, optional logarithmic y-axis.
* :func:`bar_chart` — one horizontal bar per labelled value (used for
  breakdowns such as the trace distance analysis).
"""

from __future__ import annotations

import math
from typing import List, Mapping, Sequence, Tuple

__all__ = ["bar_chart", "line_chart"]

#: Marker characters assigned to series in order.
_MARKERS = "ox+*#@%&"


def _format_number(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.3g}"


def line_chart(
    series: Mapping[str, Sequence[Tuple[float, float]]],
    *,
    width: int = 60,
    height: int = 16,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
    log_y: bool = False,
) -> str:
    """Render named ``(x, y)`` series as an ASCII chart.

    Points are plotted on a grid of ``width`` x ``height`` characters; every
    series gets its own marker and a legend line.  The x positions are scaled
    by value (not by index) so that the paper's logarithmic process-count axes
    keep their spacing; ``log_y`` applies a log10 transform to the y-axis
    (useful for latency figures spanning orders of magnitude).
    """
    if width < 10 or height < 4:
        raise ValueError("width must be >= 10 and height >= 4")
    if not series:
        raise ValueError("series must not be empty")
    points = [(x, y) for values in series.values() for x, y in values]
    if not points:
        raise ValueError("series contain no points")

    def transform_y(y: float) -> float:
        if not log_y:
            return y
        return math.log10(max(y, 1e-12))

    xs = [x for x, _ in points]
    ys = [transform_y(y) for _, y in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = x_max - x_min or 1.0
    y_span = y_max - y_min or 1.0

    grid: List[List[str]] = [[" "] * width for _ in range(height)]
    for index, (name, values) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        for x, y in values:
            col = int(round((x - x_min) / x_span * (width - 1)))
            row = int(round((transform_y(y) - y_min) / y_span * (height - 1)))
            grid[height - 1 - row][col] = marker

    y_top = 10 ** y_max if log_y else y_max
    y_bottom = 10 ** y_min if log_y else y_min
    label_width = max(len(_format_number(y_top)), len(_format_number(y_bottom)))
    lines: List[str] = []
    if title:
        lines.append(title)
    axis_note = f"{y_label}" + (" (log scale)" if log_y else "")
    lines.append(axis_note)
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = _format_number(y_top).rjust(label_width)
        elif row_index == height - 1:
            label = _format_number(y_bottom).rjust(label_width)
        else:
            label = " " * label_width
        lines.append(f"{label} |{''.join(row)}|")
    x_left = _format_number(x_min)
    x_right = _format_number(x_max)
    padding = max(1, width - len(x_left) - len(x_right))
    lines.append(" " * (label_width + 2) + x_left + " " * padding + x_right)
    lines.append(" " * (label_width + 2) + x_label)
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {name}" for i, name in enumerate(series)
    )
    lines.append("legend: " + legend)
    return "\n".join(lines)


def bar_chart(
    items: Mapping[str, float],
    *,
    width: int = 50,
    title: str = "",
    unit: str = "",
) -> str:
    """Render labelled values as horizontal ASCII bars (longest bar = ``width``)."""
    if width < 5:
        raise ValueError("width must be >= 5")
    if not items:
        raise ValueError("items must not be empty")
    peak = max(items.values())
    label_width = max(len(str(label)) for label in items)
    lines = [title] if title else []
    for label, value in items.items():
        if value < 0:
            raise ValueError("bar_chart only renders non-negative values")
        length = int(round(value / peak * width)) if peak > 0 else 0
        suffix = f" {_format_number(value)}{unit}"
        lines.append(f"{str(label).ljust(label_width)} |{'#' * length}{suffix}")
    return "\n".join(lines)
