"""Flame graphs over causal trees: latency and energy.

Two outputs, both deterministic and dependency-free:

* collapsed-stack text (``stack;frames count`` per line) — the
  interchange format every flame-graph tool reads, so the traces can be
  fed to Brendan Gregg's ``flamegraph.pl`` or speedscope unchanged;
* a self-contained HTML file embedding an SVG flame graph — no
  JavaScript, no external assets; hover tooltips via ``<title>``.

Frame weights come from :func:`~repro.causality.critical.self_times`
(microseconds of wall time the span did not cede to children) or, for
energy flames, from :func:`~repro.causality.energy.attribute_energy`'s
per-span joules (rendered in millijoules).  Frame colors hash the
frame name (CRC-32), so the same span name is always the same color.
"""

from __future__ import annotations

import html
import zlib
from typing import Dict, List, Optional

from .critical import self_times
from .forest import SpanForest, SpanNode

#: Weight units: collapsed-stack counts must be integers, so weights
#: are scaled before rounding.  Time uses microseconds, energy uses
#: microjoules — both fine-grained enough that rounding loses < 1e-6
#: of any span that matters.
TIME_SCALE = 1e6      # seconds -> microseconds
ENERGY_SCALE = 1e6    # joules  -> microjoules


def frame_label(node: SpanNode) -> str:
    """The flame-graph frame for one span: ``name@node`` (or name)."""
    return f"{node.name}@{node.node}" if node.node else node.name


def collapse(forest: SpanForest,
             weights: Optional[Dict[int, float]] = None,
             scale: float = TIME_SCALE) -> Dict[str, int]:
    """Fold the forest into collapsed stacks with integer weights.

    With ``weights`` omitted, each span weighs its critical-path self
    time (seconds, scaled to µs); pass ``attribution.by_span``-style
    joules (and ``scale=ENERGY_SCALE``) for an energy flame.  Identical
    stacks across trees merge by summation, which is what makes the
    graph a profile rather than a timeline.
    """
    stacks: Dict[str, int] = {}
    for root in forest.roots:
        per_span = weights if weights is not None else self_times(root)
        _fold(root, [], per_span, scale, stacks)
    return {stack: value for stack, value in stacks.items() if value > 0}


def _fold(node: SpanNode, prefix: List[str],
          per_span: Dict[int, float], scale: float,
          out: Dict[str, int]) -> None:
    frames = prefix + [frame_label(node)]
    weight = int(round(per_span.get(node.span_id, 0.0) * scale))
    if weight > 0:
        stack = ";".join(frames)
        out[stack] = out.get(stack, 0) + weight
    for child in node.children:
        _fold(child, frames, per_span, scale, out)


def write_collapsed(path: str, stacks: Dict[str, int]) -> None:
    """Write ``stack count`` lines, sorted for stable diffs."""
    with open(path, "w", encoding="utf-8") as fh:
        for stack in sorted(stacks):
            fh.write(f"{stack} {stacks[stack]}\n")


# --------------------------------------------------------------------
# Self-contained SVG/HTML rendering
# --------------------------------------------------------------------

_WIDTH = 1000
_ROW_H = 18
_MIN_W = 0.5          # rects narrower than this many px are dropped


class _Frame:
    __slots__ = ("name", "self_value", "children")

    def __init__(self, name: str):
        self.name = name
        self.self_value = 0
        self.children: Dict[str, "_Frame"] = {}

    @property
    def total(self) -> int:
        return self.self_value + sum(c.total for c in self.children.values())


def _merge(stacks: Dict[str, int]) -> _Frame:
    root = _Frame("all")
    for stack, value in stacks.items():
        frame = root
        for name in stack.split(";"):
            frame = frame.children.setdefault(name, _Frame(name))
        frame.self_value += value
    return root


def _color(name: str) -> str:
    """Deterministic warm color per frame name (no RNG)."""
    h = zlib.crc32(name.encode("utf-8"))
    r = 205 + (h & 0x1F)              # 205..236
    g = 90 + ((h >> 5) & 0x7F)        # 90..217
    b = (h >> 12) & 0x37              # 0..55
    return f"rgb({r},{g},{b})"


def _depth(frame: _Frame) -> int:
    if not frame.children:
        return 1
    return 1 + max(_depth(c) for c in frame.children.values())


def render_html(stacks: Dict[str, int], title: str = "Flame graph",
                unit: str = "µs") -> str:
    """Render collapsed stacks into one standalone HTML document."""
    root = _merge(stacks)
    total = root.total
    if total <= 0:
        body = "<p>No samples.</p>"
        height = _ROW_H
    else:
        rows = _depth(root)
        height = rows * _ROW_H
        rects: List[str] = []
        _layout(root, 0.0, float(_WIDTH), 0, height, total, unit, rects)
        body = (f'<svg width="{_WIDTH}" height="{height}" '
                f'xmlns="http://www.w3.org/2000/svg" '
                f'font-family="monospace" font-size="11">'
                + "".join(rects) + "</svg>")
    safe_title = html.escape(title)
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{safe_title}</title>"
        "<style>body{font-family:monospace;background:#fff}"
        "svg rect{stroke:#fff;stroke-width:0.5}"
        "svg text{pointer-events:none}</style></head>\n"
        f"<body><h3>{safe_title}</h3>\n{body}\n"
        f"<p>total: {total} {html.escape(unit)}</p></body></html>\n"
    )


def _layout(frame: _Frame, x: float, width: float, depth: int,
            height: int, total: int, unit: str,
            out: List[str]) -> None:
    y = height - (depth + 1) * _ROW_H
    if width >= _MIN_W:
        pct = 100.0 * frame.total / total
        label = html.escape(frame.name)
        tip = (f"{label}: {frame.total} {html.escape(unit)} "
               f"({pct:.2f}%)")
        out.append(
            f'<g><title>{tip}</title>'
            f'<rect x="{x:.2f}" y="{y}" width="{width:.2f}" '
            f'height="{_ROW_H - 1}" fill="{_color(frame.name)}"/>')
        if width > 35:
            chars = max(1, int(width / 7) - 1)
            out.append(f'<text x="{x + 3:.2f}" y="{y + 13}">'
                       f'{html.escape(frame.name[:chars])}</text>')
        out.append("</g>")
    cursor = x
    for name in sorted(frame.children):
        child = frame.children[name]
        child_w = width * child.total / frame.total
        _layout(child, cursor, child_w, depth + 1, height, total, unit, out)
        cursor += child_w


def write_flame_html(path: str, stacks: Dict[str, int],
                     title: str = "Flame graph",
                     unit: str = "µs") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_html(stacks, title=title, unit=unit))


def latency_stacks(forest: SpanForest) -> Dict[str, int]:
    """Collapsed stacks weighted by critical-path self time (µs)."""
    return collapse(forest, weights=None, scale=TIME_SCALE)


def energy_stacks(forest: SpanForest,
                  by_span: Dict[int, float]) -> Dict[str, int]:
    """Collapsed stacks weighted by attributed joules (µJ)."""
    return collapse(forest, weights=by_span, scale=ENERGY_SCALE)
