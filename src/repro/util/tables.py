"""Plain-text table rendering for experiment reports.

The benchmark harness prints the same rows the paper's tables and figures
report; these helpers keep that output aligned and diff-friendly without
pulling in a formatting dependency.
"""

from __future__ import annotations

from collections.abc import Sequence


def _cell(value: object, width: int, numeric: bool) -> str:
    text = value if isinstance(value, str) else _render(value)
    return text.rjust(width) if numeric else text.ljust(width)


def _render(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _column_widths(header: Sequence[str], rows: Sequence[Sequence[object]]) -> list[int]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, value in enumerate(row):
            widths[i] = max(widths[i], len(_render(value)))
    return widths


def _numeric_columns(rows: Sequence[Sequence[object]]) -> list[bool]:
    if not rows:
        return []
    flags = [True] * len(rows[0])
    for row in rows:
        for i, value in enumerate(row):
            if isinstance(value, str):
                flags[i] = False
    return flags


def format_table(
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned fixed-width table with an optional title line."""
    rows = [list(r) for r in rows]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"row has {len(row)} cells but header has {len(header)}: {row!r}"
            )
    widths = _column_widths(header, rows)
    numeric = _numeric_columns(rows) or [False] * len(header)
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(
                _cell(v, w, num) for v, w, num in zip(row, widths, numeric)
            )
        )
    return "\n".join(lines)

