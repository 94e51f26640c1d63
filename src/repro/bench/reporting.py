"""Plain-text rendering of experiment rows (tables and series).

The benchmark scripts print these tables so that ``pytest benchmarks/ -s``
regenerates the paper's figures as readable text; the same formatting is used
by the CLI's ``experiments`` subcommand and when recording results under
benchmarks/results/.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def _format_value(value: object, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str] | None = None,
                 precision: int = 3, title: str | None = None) -> str:
    """Render dict rows as a fixed-width text table.

    Columns default to the keys of the first row, in their insertion order.
    """
    rows = list(rows)
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())
    rendered = [[_format_value(row.get(col, ""), precision) for col in cols] for row in rows]
    widths = [max(len(col), max(len(r[i]) for r in rendered)) for i, col in enumerate(cols)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(cols))
    lines.append(header)
    lines.append("  ".join("-" * widths[i] for i in range(len(cols))))
    for r in rendered:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(cols))))
    return "\n".join(lines)


def format_series(rows: Sequence[Mapping[str, object]], x: str, y: str, group: str,
                  precision: int = 3, title: str | None = None) -> str:
    """Render rows as one line per *group* value: ``group: y(x1), y(x2), ...``.

    Matches how the paper's line plots read: one series per platform /
    workload, node count on the x axis.
    """
    rows = list(rows)
    series: dict[object, list[tuple[object, object]]] = {}
    for row in rows:
        series.setdefault(row[group], []).append((row[x], row[y]))
    lines = []
    if title:
        lines.append(title)
    for key, points in series.items():
        points = sorted(points, key=lambda p: p[0])
        rendered = ", ".join(
            f"{p[0]}:{_format_value(p[1], precision)}" for p in points
        )
        lines.append(f"{key:>12}  {rendered}")
    return "\n".join(lines)

