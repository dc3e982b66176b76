"""Plain-text table formatting for ``insq compare``, the examples and the
paper sweep (``benchmarks/paper.py``): dictionaries rendered as aligned
monospace tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render dictionaries as an aligned plain-text table.

    Args:
        rows: one dictionary per row.
        columns: column order; defaults to the keys of the first row.
        title: optional heading printed above the table.

    Returns:
        The formatted table as a single string (no trailing newline).
    """
    if not rows:
        return title or ""
    if columns is None:
        columns = list(rows[0].keys())
    rendered_rows = [[_render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(row[i]) for row in rendered_rows))
        for i, column in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append("  ".join(value.ljust(width) for value, width in zip(row, widths)))
    return "\n".join(lines)


def _render(value: object) -> str:
    """Compact textual rendering of a cell value."""
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:.1f}"
        if abs(value) >= 1:
            return f"{value:.3f}"
        return f"{value:.5f}"
    return str(value)
