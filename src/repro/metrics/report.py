"""Plain-text report rendering.

Every experiment in the benchmark suite ends by printing the rows the
paper reports (or the executable analogue of a figure); these helpers
keep the formatting consistent and dependency-free.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def render_table(
    rows: Sequence[Dict[str, object]],
    columns: Sequence[str],
    title: str = "",
) -> str:
    """Render dict rows as an aligned, pipe-free text table (floats to
    three significant digits)."""
    if not rows:
        return title + "\n(no rows)" if title else "(no rows)"
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append("%.3g" % value)
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [
        max(len(column), max(len(row[i]) for row in rendered))
        for i, column in enumerate(columns)
    ]
    lines = [title] if title else []
    for cells in [list(columns), ["-" * width for width in widths]] + rendered:
        # The last column is left unpadded: no line ends in whitespace.
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()
        )
    return "\n".join(lines)


def render_kv(title: str, pairs: Sequence[tuple]) -> str:
    """Render key/value pairs under a heading."""
    width = max((len(str(key)) for key, _ in pairs), default=0)
    lines = [title]
    for key, value in pairs:
        lines.append("  %-*s : %s" % (width, key, value))
    return "\n".join(lines)
