"""Load imbalance and plain-text reporting.

:func:`load_imbalance` summarises a per-node load distribution in one ratio;
:func:`format_table` renders the small text tables the figures, the
experiments CLI and the benchmark harness print.
"""

from __future__ import annotations

from typing import List, Sequence


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
