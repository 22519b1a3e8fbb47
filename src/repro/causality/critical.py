"""Critical-path extraction over causal span trees.

Given one tree (a request, a connection, a job), the critical path is
the single chain of spans that accounts for every instant of the root's
wall time: at each instant, the deepest span covering it.  The walk
clips children to their parent's window, attributes gaps between
children to the parent, and recurses — so the resulting segments
partition ``[root.start, root.end)`` exactly.

Segment kinds:

* ``"self"`` — a leaf span was running: actual work at the finest
  traced grain (CPU burst, disk read, network transfer inside a leg).
* ``"blocked"`` — a non-leaf span's own time between/around its
  children: coordination, queueing and network gaps where the parent
  was waiting rather than working.

Re-deriving Table 7 from the trees alone
(:func:`decomposition_from_critical_paths`) is the correctness oracle:
it must agree with the call-log computation and with the flat-span
:func:`~repro.trace.delay_decomposition_from_trace` — except it never
looks at the ``req`` correlation attrs, only at parent/child edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..trace.analysis import TraceDecomposition
from ..trace.events import TraceLog
from .forest import SpanForest, SpanNode, build_forest


@dataclass(frozen=True)
class Segment:
    """One interval of a critical path, owned by one span."""

    kind: str          # "self" (leaf working) or "blocked" (parent waiting)
    name: str
    node: str
    start: float
    end: float
    span_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CriticalPath:
    """The exact partition of one tree root's wall time."""

    root: SpanNode
    segments: List[Segment]

    def by_kind(self) -> Dict[str, float]:
        """Seconds split into working ("self") vs waiting ("blocked")."""
        totals: Dict[str, float] = {}
        for seg in self.segments:
            totals[seg.kind] = totals.get(seg.kind, 0.0) + seg.duration
        return totals

    def longest(self, n: int = 5) -> List[Segment]:
        """The ``n`` longest segments, longest first (ties by start)."""
        return sorted(self.segments,
                      key=lambda s: (-s.duration, s.start))[:n]


def critical_path(root: SpanNode) -> CriticalPath:
    """Walk ``root``'s tree into contiguous critical-path segments."""
    segments: List[Segment] = []
    _descend(root, root.start, root.end, segments)
    return CriticalPath(root=root, segments=segments)


def _descend(node: SpanNode, lo: float, hi: float,
             out: List[Segment]) -> None:
    """Attribute ``[lo, hi)`` to ``node`` and its children."""
    kind = "blocked" if node.children else "self"
    cursor = lo
    for child in node.children:
        start = max(child.start, cursor)
        end = min(child.end, hi)
        if end <= start:
            continue     # outside the window or covered by a sibling
        if start > cursor:
            out.append(Segment(kind, node.name, node.node, cursor, start,
                               node.span_id))
        _descend(child, start, end, out)
        cursor = end
        if cursor >= hi:
            break
    if cursor < hi:
        out.append(Segment(kind, node.name, node.node, cursor, hi,
                           node.span_id))


def self_times(root: SpanNode) -> Dict[int, float]:
    """Per-span self time: duration not covered by own children.

    The flame-graph weight — summed over a tree it equals the root's
    duration (children clip to the parent's window).
    """
    totals: Dict[int, float] = {}
    for node in root.walk():
        covered = 0.0
        cursor = node.start
        for child in node.children:
            start = max(child.start, cursor)
            end = min(child.end, node.end)
            if end > start:
                covered += end - start
                cursor = end
        totals[node.span_id] = max(0.0, node.dur - covered)
    return totals


def decomposition_from_critical_paths(
        log: TraceLog, after: float = 0.0,
        forest: Optional[SpanForest] = None) -> TraceDecomposition:
    """Re-derive the Table 7 decomposition from causal trees alone.

    Unlike :func:`~repro.trace.delay_decomposition_from_trace`, no
    correlation attributes are consulted: requests are identified as
    ``request`` spans, their cache/db legs as the *children* of those
    spans, and connects as ``connect`` spans — pure structure.
    """
    if forest is None:
        forest = build_forest(log, categories=("web", "net"))
    requests: List[SpanNode] = []
    connects: List[float] = []
    for node in forest.walk():
        if node.name == "connect":
            if node.start >= after:
                connects.append(node.dur)
        elif (node.name == "request" and node.start >= after
                and node.event.attrs.get("status") == 200):
            requests.append(node)
    if not requests:
        raise ValueError("forest holds no completed request spans "
                         "in the window")
    cache_total = 0.0
    db_times: List[float] = []
    total = 0.0
    for req in requests:
        total += req.dur
        for child in req.children:
            if child.name == "cache":
                cache_total += child.dur
            elif child.name == "db":
                db_times.append(child.dur)
    n = len(requests)
    return TraceDecomposition(
        requests=n,
        db_delay_s=sum(db_times) / len(db_times) if db_times else 0.0,
        cache_delay_s=cache_total / n,
        total_delay_s=total / n,
        connect_delay_s=sum(connects) / len(connects) if connects else 0.0,
    )
