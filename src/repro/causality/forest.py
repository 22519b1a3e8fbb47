"""Folding a flat span stream back into causal trees.

The tracer emits spans append-only; with span identity
(:class:`~repro.trace.SpanContext`) each span carries its
trace/span/parent ids, so an exported log — or a live one — can be
folded back into the forest of causal trees it came from: one tree per
client connection, one per MapReduce job.  Spans without identity
(``span_id == 0``, e.g. legacy kernel spans) are ignored; spans whose
parent never made it into the log (ring-buffer eviction, category
filters) are kept as extra roots and counted in
:attr:`SpanForest.orphans`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from ..trace.events import TraceEvent


@dataclass
class SpanNode:
    """One span in a causal tree, with its resolved children."""

    event: TraceEvent
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def trace_id(self) -> int:
        return self.event.trace_id

    @property
    def span_id(self) -> int:
        return self.event.span_id

    @property
    def parent_id(self) -> int:
        return self.event.parent_id

    @property
    def name(self) -> str:
        return self.event.name

    @property
    def node(self) -> str:
        return self.event.node

    @property
    def start(self) -> float:
        return self.event.ts

    @property
    def end(self) -> float:
        return self.event.end

    @property
    def dur(self) -> float:
        return self.event.dur

    @property
    def aborted(self) -> Optional[str]:
        """The fault kind that cut this span short, or None."""
        return self.event.attrs.get("aborted")

    def walk(self) -> Iterator["SpanNode"]:
        """Pre-order traversal of this subtree (self first)."""
        yield self
        for child in self.children:
            yield from child.walk()

@dataclass
class SpanForest:
    """Every causal tree recovered from one trace log."""

    roots: List[SpanNode]
    by_id: Dict[int, SpanNode]
    #: Nodes whose parent span is missing from the log; they are also
    #: present in :attr:`roots` so walks still cover them.
    orphans: List[SpanNode]

    def walk(self) -> Iterator[SpanNode]:
        for root in self.roots:
            yield from root.walk()

    def trees(self) -> Dict[int, List[SpanNode]]:
        """Roots grouped by trace_id (orphaned subtrees included)."""
        grouped: Dict[int, List[SpanNode]] = {}
        for root in self.roots:
            grouped.setdefault(root.trace_id, []).append(root)
        return grouped

    def ancestors(self, span_id: int) -> List[SpanNode]:
        """Path from ``span_id``'s parent up to its reachable root."""
        path = []
        node = self.by_id.get(span_id)
        while node is not None and node.parent_id:
            node = self.by_id.get(node.parent_id)
            if node is None:
                break
            path.append(node)
        return path

def build_forest(log: Iterable[TraceEvent],
                 categories: Optional[Iterable[str]] = None) -> SpanForest:
    """Fold identified spans of ``log`` into a :class:`SpanForest`.

    ``log`` is any iterable of events (a :class:`TraceLog` included);
    only phase-``X`` spans with a nonzero span_id participate.
    ``categories`` optionally narrows which span categories join the
    forest (power counters etc. never do).
    """
    wanted = frozenset(categories) if categories is not None else None
    by_id: Dict[int, SpanNode] = {}
    ordered: List[SpanNode] = []
    for event in log:
        if event.phase != "X" or not event.span_id:
            continue
        if wanted is not None and event.category not in wanted:
            continue
        node = SpanNode(event)
        # Last write wins on duplicate ids (should not happen; a
        # truncated ring buffer can at worst re-import one overlap).
        by_id[event.span_id] = node
        ordered.append(node)
    roots: List[SpanNode] = []
    orphans: List[SpanNode] = []
    for node in ordered:
        if by_id.get(node.span_id) is not node:
            continue                      # superseded duplicate
        if node.parent_id and node.parent_id in by_id:
            by_id[node.parent_id].children.append(node)
        else:
            roots.append(node)
            if node.parent_id:
                orphans.append(node)
    key = (lambda n: (n.start, n.span_id))
    roots.sort(key=key)
    for node in by_id.values():
        node.children.sort(key=key)
    return SpanForest(roots=roots, by_id=by_id, orphans=orphans)
