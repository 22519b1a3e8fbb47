"""Trace records and the append-only log that collects them.

A :class:`TraceEvent` is one timestamped observation from a simulated
layer — a completed span (``phase == "X"``), an instantaneous marker
(``"i"``) or a counter sample (``"C"``), mirroring the Chrome
trace-event phases so the export in :mod:`repro.trace.export` is a
straight mapping.  A :class:`TraceLog` collects events append-only,
optionally filtered down to a set of categories and optionally bounded
to the most recent *N* events (ring-buffer mode) so week-long simulated
runs cannot exhaust host memory.

The log stores events column-wise and builds :class:`TraceEvent`
objects only when it is read.  A traced run emits hundreds of
thousands of rows, so each row is kept as small as the read side
allows:

* ``ts`` and ``dur`` live in ``array("d")`` columns and the three span
  ids in ``array("q")`` columns: 8 bytes a field, no boxed float or int
  kept alive per row;
* ``category``, ``name``, ``node`` and ``phase`` are list slots pointing
  at strings the emitters share;
* ``attrs`` are split into a key schema and values.  Each distinct key
  tuple, such as ``("req", "status")``, is stored once and every row
  holds a slot pointing at it (the empty tuple when the row has no
  attrs); the values of every row go, in row order, into one flat list.
  Reading a row rebuilds a fresh ``dict(zip(keys, values))``, so key
  order and value objects are exactly what was emitted.

On the traced ``web-day-observed`` benchmark day (182,061 rows, a
2-core x86-64 VM with CPython 3.11) the log retains about 97 bytes a
row by ``tracemalloc``, against 269 bytes when each row kept a boxed
``dur`` and its emitted attrs dict.  Arrays and the flat value
list are single objects to the cyclic collector, so it still scans a
fixed handful of containers however long the run.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

#: Phase tags (a subset of the Chrome trace-event phases).
PHASE_SPAN = "X"       # complete span: [ts, ts + dur]
PHASE_INSTANT = "i"    # point-in-time marker
PHASE_COUNTER = "C"    # sampled counter value

_VALID_PHASES = frozenset((PHASE_SPAN, PHASE_INSTANT, PHASE_COUNTER))

#: Span ids are stored as signed 64-bit integers.
_MAX_ID = 2 ** 63 - 1


@dataclass(frozen=True)
class TraceEvent:
    """One observation: what happened, where, and when.

    Parameters
    ----------
    ts:
        Simulated time of the event (seconds).  For spans this is the
        *start* of the span.
    category:
        Coarse grouping used for filtering (``"kernel"``, ``"resource"``,
        ``"yarn"``, ``"task"``, ``"web"``, ``"power"`` ...).
    name:
        What the event is (``"request"``, ``"container.wait"`` ...).
    node:
        Simulated server the event belongs to (``""`` for global events).
    attrs:
        Free-form payload; must stay JSON-serialisable for the exporters.
    phase:
        One of :data:`PHASE_SPAN`, :data:`PHASE_INSTANT`,
        :data:`PHASE_COUNTER`.
    dur:
        Span duration in seconds (0 for non-span events).
    trace_id / span_id / parent_id:
        Causal identity (:class:`~repro.trace.SpanContext`); 0 means the
        emitter carried no context (legacy flat events).  ``trace_id``
        names the whole tree, ``parent_id`` is the causing span's
        ``span_id`` (0 for roots).  Each must lie in ``[0, 2**63)``.

    Events read back from a :class:`TraceLog` carry ``ts`` and ``dur``
    as ``float`` and the three ids as ``int`` whatever numeric types
    were emitted: an int ``start`` passed to ``Tracer.complete`` reads
    back as the equal float.  Their ``attrs`` is a fresh dict on every
    read, with the emitted keys in the emitted order.
    """

    ts: float
    category: str
    name: str
    node: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)
    phase: str = PHASE_INSTANT
    dur: float = 0.0
    trace_id: int = 0
    span_id: int = 0
    parent_id: int = 0

    def __post_init__(self):
        if self.phase not in _VALID_PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")
        if not (0 <= self.ts < math.inf and 0 <= self.dur < math.inf):
            raise ValueError(f"ts and dur must be finite and >= 0, got "
                             f"ts={self.ts!r}, dur={self.dur!r}")
        if not (0 <= self.trace_id <= _MAX_ID
                and 0 <= self.span_id <= _MAX_ID
                and 0 <= self.parent_id <= _MAX_ID):
            raise ValueError("span identity ids must be in [0, 2**63)")

    @property
    def end(self) -> float:
        """Simulated time the event ends (``ts`` for non-spans)."""
        return self.ts + self.dur


_new = object.__new__
_set = object.__setattr__


class TraceLog:
    """Append-only event collector with filtering and bounded memory.

    Parameters
    ----------
    max_events:
        When given, keep only the most recent ``max_events`` accepted
        events (ring-buffer mode); :attr:`evicted` counts the overwritten
        ones.
    categories:
        When given, only events whose category is in this set are kept
        (an empty set keeps nothing); :attr:`filtered` counts the
        rejected ones.  Emitters can consult :meth:`accepts` to skip
        building attrs for doomed events.
    """

    def __init__(self, max_events: Optional[int] = None,
                 categories: Optional[Iterable[str]] = None):
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = max_events
        self.categories = (frozenset(categories) if categories is not None
                           else None)
        # One column per TraceEvent field, in field order; the attrs
        # column holds each row's interned key tuple, and the values
        # live in ``_values``.
        self._ts = array("d")
        self._category: List[str] = []
        self._name: List[str] = []
        self._node: List[str] = []
        self._keys: List[Tuple[str, ...]] = []
        self._phase: List[str] = []
        self._dur = array("d")
        self._trace_id = array("q")
        self._span_id = array("q")
        self._parent_id = array("q")
        self._columns = (self._ts, self._category, self._name, self._node,
                         self._keys, self._phase, self._dur, self._trace_id,
                         self._span_id, self._parent_id)
        self._values: List[Any] = []
        self._schemas: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        # A bounded log lets its columns overrun max_events by a quarter
        # before trimming the oldest rows, so a trim's cost is spread
        # over the appends that made it necessary.
        self._trim_at = (max_events + max(max_events // 4, 64)
                         if max_events is not None else None)
        self.accepted = 0
        self.filtered = 0

    # -- write side ------------------------------------------------------

    def accepts(self, category: str) -> bool:
        """True when an event of ``category`` would be kept."""
        return self.categories is None or category in self.categories

    def append(self, event: TraceEvent) -> bool:
        """Record ``event``; returns False when category-filtered out."""
        return self._record(event.ts, event.category, event.name,
                            event.node, event.attrs, event.phase, event.dur,
                            event.trace_id, event.span_id, event.parent_id)

    def _record(self, ts: float, category: str, name: str, node: str,
                attrs: Dict[str, Any], phase: str, dur: float,
                trace_id: int, span_id: int, parent_id: int) -> bool:
        """Record one event from its field values, unvalidated.

        The write path of :meth:`append` and of
        :class:`~repro.trace.Tracer`, which validates what it emits; no
        :class:`TraceEvent` is built.  Returns False when filtered out.
        """
        if self.categories is not None and category not in self.categories:
            self.filtered += 1
            return False
        self._ts.append(ts)
        self._category.append(category)
        self._name.append(name)
        self._node.append(node)
        if attrs:
            keys = tuple(attrs)
            self._keys.append(self._schemas.setdefault(keys, keys))
            self._values.extend(attrs.values())
        else:
            self._keys.append(())
        self._phase.append(phase)
        self._dur.append(dur)
        self._trace_id.append(trace_id)
        self._span_id.append(span_id)
        self._parent_id.append(parent_id)
        self.accepted += 1
        if self._trim_at is not None and len(self._ts) > self._trim_at:
            self._trim()
        return True

    def _trim(self) -> None:
        """Drop the rows a ring buffer of ``max_events`` no longer holds."""
        excess = len(self._ts) - self.max_events \
            if self.max_events is not None else 0
        if excess > 0:
            del self._values[:sum(map(len, self._keys[:excess]))]
            for column in self._columns:
                del column[:excess]

    # -- read side -------------------------------------------------------

    @property
    def evicted(self) -> int:
        """Accepted events overwritten by the ring buffer."""
        return self.accepted - len(self)

    def __len__(self) -> int:
        if self.max_events is not None:
            return min(len(self._ts), self.max_events)
        return len(self._ts)

    def _select(self, category: Optional[str] = None,
                name: Optional[str] = None,
                phase: Optional[str] = None) -> Iterator[TraceEvent]:
        """Retained rows matching every given field, as fresh events.

        The write side validated every row, so the events are built
        field by field without re-running ``TraceEvent.__post_init__``.
        """
        self._trim()
        # Rows take their values from one shared iterator, in order:
        # zip() stops at the end of a row's keys without taking more.
        values = iter(self._values)
        for (ts, cat, nm, node, keys, ph, dur, trace_id, span_id,
             parent_id) in zip(*self._columns):
            if ((category is not None and cat != category)
                    or (name is not None and nm != name)
                    or (phase is not None and ph != phase)):
                for _ in keys:
                    next(values)
                continue
            event = _new(TraceEvent)
            _set(event, "ts", ts)
            _set(event, "category", cat)
            _set(event, "name", nm)
            _set(event, "node", node)
            _set(event, "attrs", dict(zip(keys, values)) if keys else {})
            _set(event, "phase", ph)
            _set(event, "dur", dur)
            _set(event, "trace_id", trace_id)
            _set(event, "span_id", span_id)
            _set(event, "parent_id", parent_id)
            yield event

    def __iter__(self) -> Iterator[TraceEvent]:
        return self._select()

    def events(self, category: Optional[str] = None,
               name: Optional[str] = None,
               phase: Optional[str] = None) -> List[TraceEvent]:
        """Retained events, optionally narrowed by category/name/phase."""
        return list(self._select(category, name, phase))

    def spans(self, category: Optional[str] = None,
              name: Optional[str] = None) -> List[TraceEvent]:
        """Retained complete spans (phase ``"X"``)."""
        return self.events(category=category, name=name, phase=PHASE_SPAN)

    def counters(self, category: Optional[str] = None,
                 name: Optional[str] = None) -> List[TraceEvent]:
        """Retained counter samples (phase ``"C"``)."""
        return self.events(category=category, name=name, phase=PHASE_COUNTER)
