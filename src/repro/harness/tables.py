"""Plain-text table rendering for experiment output."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render rows as an aligned text table (numbers right-aligned)."""
    materialized: List[List[str]] = [
        [_cell(value) for value in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        cells = []
        for i, cell in enumerate(row):
            if _is_numeric(cell):
                cells.append(cell.rjust(widths[i]))
            else:
                cells.append(cell.ljust(widths[i]))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _is_numeric(cell: str) -> bool:
    try:
        float(cell.rstrip("%MK"))
        return True
    except ValueError:
        return False
