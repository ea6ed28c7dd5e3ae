"""Plain-text table formatting used by the benchmark harness and examples.

The benchmark scripts print the same rows/series the paper's tables and
figures report; this helper renders them as aligned ASCII tables without
pulling in any plotting dependency.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    float_format: str = "{:.3g}",
    title: str | None = None,
) -> str:
    """Render a list of row dictionaries as an aligned ASCII table."""
    if not rows:
        return (title + "\n(empty)\n") if title else "(empty)\n"
    columns = list(columns) if columns else list(rows[0].keys())
    rendered = [[_fmt(row.get(col, ""), float_format) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)))
    return "\n".join(lines) + "\n"


def _fmt(value: object, float_format: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return float_format.format(value)
    return str(value)

