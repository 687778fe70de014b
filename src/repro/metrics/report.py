"""Ranked-node distributions and plain-text reporting.

The figures of Section 8 plot per-node load against "ranked nodes": nodes are
sorted by decreasing load, optionally bucketed in groups of 100 ("Ranked
nodes (x100)").  These helpers turn per-node counters into those series and
render small text tables so that the benchmark harness can print the rows the
paper reports.
"""

from __future__ import annotations

import math

from repro.errors import MetricsError
from typing import Iterable, List, Sequence


def ranked_distribution(values: Iterable[float]) -> List[float]:
    """Sort per-node values in decreasing order (the x-axis is the rank)."""
    return sorted(values, reverse=True)


def group_ranked(
    values: Iterable[float], group_size: int = 100, aggregate: str = "mean"
) -> List[float]:
    """Aggregate a ranked distribution into buckets of ``group_size`` nodes.

    ``aggregate`` is ``"mean"`` or ``"sum"``.  This mirrors the paper's
    "Ranked nodes (x100)" axes, where each plotted point summarises 100
    consecutively ranked nodes.
    """
    ranked = ranked_distribution(values)
    if group_size <= 0:
        raise MetricsError("group_size must be positive")
    groups: List[float] = []
    for start in range(0, len(ranked), group_size):
        chunk = ranked[start : start + group_size]
        if aggregate == "sum":
            groups.append(float(sum(chunk)))
        elif aggregate == "mean":
            groups.append(float(sum(chunk)) / len(chunk))
        else:
            raise MetricsError(f"unknown aggregate {aggregate!r}")
    return groups


def participation_count(values: Iterable[float], threshold: float = 0.0) -> int:
    """Number of nodes whose load exceeds ``threshold`` (participating nodes)."""
    return sum(1 for value in values if value > threshold)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Simple nearest-rank percentile of ``values`` (fraction in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


def load_imbalance(values: Sequence[float]) -> float:
    """Ratio between the maximum and the mean per-node load (1.0 = perfectly even)."""
    values = list(values)
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    return max(values) / mean


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_format: str = "{:.2f}",
) -> str:
    """Render a small, aligned plain-text table (used by the bench harness)."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(col) for col in columns]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title]
    header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
