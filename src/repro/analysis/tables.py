"""Paper-style ASCII tables for CLI output."""

from __future__ import annotations

from typing import Mapping, Sequence


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (0 < abs(value) < 0.01):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def render_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Render dict-rows as an aligned ASCII table.

    Args:
        rows: One mapping per row; missing keys render as blanks.
        columns: Column order; defaults to the union of keys in first-seen
            order.
        title: Optional heading line.

    Returns:
        The table as a single string (no trailing newline).
    """
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    cells = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    lines: list[str] = []
    if title:
        lines.append(title)
    header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(row[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)
