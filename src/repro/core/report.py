"""Plain-text tables and series dumps for the CLI and the claims table."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None, markdown: bool = False) -> str:
    """Render a fixed-width text table, or an aligned Markdown one."""
    if not headers:
        raise ValueError("need at least one column")
    cells = [[str(c) for c in row] for row in rows]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    def line(row: Sequence[str]) -> str:
        text = " | ".join(c.ljust(w) for c, w in zip(row, widths))
        return f"| {text} |" if markdown else text

    lines.append(line(headers))
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|"
                 if markdown else "-+-".join("-" * w for w in widths))
    lines.extend(line(row) for row in cells)
    return "\n".join(lines)


def format_series(name: str,
                  pairs: Sequence[Tuple[float, float]],
                  x_label: str = "x", y_label: str = "y",
                  max_points: int = 40) -> str:
    """Render an (x, y) series compactly, subsampling long traces."""
    if max_points < 2:
        raise ValueError("max_points must be >= 2")
    points = list(pairs)
    if len(points) > max_points:
        step = (len(points) - 1) / (max_points - 1)
        points = [points[round(i * step)] for i in range(max_points)]
    body = "  ".join(f"{x:g}:{y:g}" for x, y in points)
    return f"{name} [{x_label} -> {y_label}] {body}"

