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

* a row's *shape* — its ``(category, name, node, phase, attr keys,
  identified)`` tuple — is interned once per distinct shape, and the
  row keeps one list slot pointing at it.  Hot emitters intern their
  shapes once, where they are built, and emit through
  :meth:`~repro.trace.Tracer.span` with a tuple of attr values;
* ``ts`` and ``dur`` live in ``array("d")`` columns: 8 bytes a field,
  no boxed float kept alive per row;
* only a row of an *identified* shape — one that carries a
  :class:`~repro.trace.SpanContext` — stores its three span ids, one
  after another, in a single ``array("q")`` column; every other row
  reads back ids of 0 without storing them;
* the attr values of every row go, in row order, into one flat list.
  Reading a row rebuilds a fresh ``dict(zip(keys, values))``, so key
  order and value objects are exactly what was emitted.

Recording a row is one call into :meth:`TraceLog._write`: three
appends, plus one extend for its attr values and one for its ids when
it has them.  A read narrowed by category, name or phase decides once
per shape which rows it wants, skipping the others before it builds an
event.  On the traced ``web-day-observed`` benchmark day (182,061 rows,
64,709 of them identified, on a 2-core x86-64 VM with CPython 3.11)
the log retains about 44 bytes a row by ``tracemalloc``, down from 59
when every row stored three ids.  Arrays and the flat value list are
single objects to the cyclic collector, so it still scans a fixed
handful of containers however long the run.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

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

#: A row's interned ``(category, name, node, phase, attr keys,
#: identified)``; only the rows of an identified shape store span ids.
Shape = Tuple[str, str, str, str, Tuple[str, ...], bool]

#: The ids of a row without a causal identity.
_NO_IDS = (0, 0, 0)


class _Unbound:
    """The clock of a log no simulation drives: always at 0."""

    _now = 0.0


_UNBOUND = _Unbound()


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
        # The one-slot-per-row columns: each row's interned shape, its
        # ts and its dur.  An identified row's ids take three slots in
        # ``_ids``, and every row's attr values len(keys) slots in
        # ``_values``.
        self._shapes: List[Shape] = []
        self._ts = array("d")
        self._dur = array("d")
        self._columns = (self._shapes, self._ts, self._dur)
        self._ids = array("q")
        self._values: List[Any] = []
        self._interned: Dict[Shape, Shape] = {}
        # A bounded log lets its columns overrun max_events by a quarter
        # before trimming the oldest rows, so a trim's cost is spread
        # over the appends that made it necessary.
        self._trim_at = (max_events + max(max_events // 4, 64)
                         if max_events is not None else None)
        self.accepted = 0
        self.filtered = 0
        # Set by the Tracer that owns this log: the simulation whose
        # clock ends its spans, and the fold of the rows it emitted
        # into its metrics, called with a filtered-out emission's
        # ``(name, phase, sample)`` to fold after them.  ``_folded``
        # counts accepted rows already folded (or, for appended rows,
        # skipped).
        self._clock = _UNBOUND
        self._fold: Optional[Callable[..., None]] = None
        self._folded = 0

    # -- write side ------------------------------------------------------

    def accepts(self, category: str) -> bool:
        """True when an event of ``category`` would be kept."""
        return self.categories is None or category in self.categories

    def append(self, event: TraceEvent) -> bool:
        """Record ``event``; returns False when category-filtered out.

        An appended event is not an emission of the owning tracer, so
        it never feeds the tracer's metrics.  It is stored as an
        identified row when any of its three ids is not 0.
        """
        if self._fold is not None and self.accepts(event.category):
            self._fold()
            self._folded += 1
        ids = (event.trace_id, event.span_id, event.parent_id)
        identified = ids != _NO_IDS
        attrs = event.attrs
        shape = (event.category, event.name, event.node, event.phase,
                 tuple(attrs), identified)
        return self._write(self._interned.setdefault(shape, shape),
                           event.ts, ids if identified else None,
                           attrs.values(), event.dur)

    def _write(self, shape: Shape, start: float, ctx=None, values=(),
               dur: Optional[float] = None) -> bool:
        """Record one row of ``shape``; False when filtered out.

        The one row writer, which the owning tracer exposes as
        :meth:`~repro.trace.Tracer.span` (no :class:`TraceEvent` is
        built).  Without ``dur`` the row is an emission: a span from
        ``start``, which must be finite and in ``[0, now]``, to the
        clock's now, and a filtered-out emission still feeds the
        tracer's metrics.  With ``dur`` it is :meth:`append`'s row of
        an event validated when it was built.  ``shape`` is the log's
        interned copy (``_interned``), which rows point at; ``ctx``
        holds the row's three span ids, given exactly when the shape is
        identified, and ``values`` its attr values in the shape's key
        order.
        """
        emitted = dur is None
        if emitted:
            now = self._clock._now
            if not 0 <= start <= now:           # also rejects NaN
                if start > now:
                    raise ValueError(f"span start {start} lies in the "
                                     f"future (now={now})")
                raise ValueError(f"span start must be finite and >= 0, "
                                 f"got {start}")
            dur = now - start
        if (ctx is None) is shape[5] or len(values) != len(shape[4]):
            raise ValueError(f"a row of shape {shape!r} needs "
                             f"{len(shape[4])} values and "
                             f"{'a' if shape[5] else 'no'} span context, "
                             f"got ctx={ctx!r}, values={tuple(values)!r}")
        if self.categories is not None and shape[0] not in self.categories:
            self.filtered += 1
            if emitted and self._fold is not None:
                phase = shape[3]
                self._fold((shape[1], phase, [*values][-1]
                            if phase == PHASE_COUNTER else dur))
            return False
        if ctx is not None:
            self._ids.extend(ctx)
        self._shapes.append(shape)
        self._ts.append(start)
        self._dur.append(dur)
        if values:
            self._values.extend(values)
        self.accepted += 1
        if self._trim_at is not None and len(self._ts) > self._trim_at:
            self._trim()
        return True

    def _unfolded(self) -> Iterator[Tuple[str, str, Any]]:
        """``(name, phase, sample)`` of each row added since the last
        call, oldest first, and marks them folded.

        ``sample`` is a span's ``dur`` and a counter's ``value`` (its
        last attr).  The unfolded rows are always the newest: the
        owning tracer folds them before a trim drops any.
        """
        pending = self.accepted - self._folded
        self._folded = self.accepted
        if pending <= 0:
            return
        shapes = self._shapes[-pending:]
        values = self._values
        end = len(values) - sum(len(shape[4]) for shape in shapes)
        for (_, name, _, phase, keys, _), dur in zip(shapes,
                                                     self._dur[-pending:]):
            end += len(keys)
            yield (name, phase,
                   values[end - 1] if phase == PHASE_COUNTER else dur)

    def _trim(self) -> None:
        """Drop the rows a ring buffer of ``max_events`` no longer holds."""
        excess = len(self._ts) - self.max_events \
            if self.max_events is not None else 0
        if excess > 0:
            if self._fold is not None and self._folded < self.accepted:
                self._fold()
            values = ids = 0
            for shape in self._shapes[:excess]:
                values += len(shape[4])
                ids += shape[5]
            del self._values[:values]
            del self._ids[:3 * ids]
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

        Which shapes match is decided once per distinct shape, and a
        row of any other shape is skipped before an event is built.
        The write side validated every row, so the events are built
        field by field without re-running ``TraceEvent.__post_init__``.
        """
        self._trim()
        wanted = None
        if category is not None or name is not None or phase is not None:
            wanted = {id(shape) for shape in self._interned
                      if (category is None or shape[0] == category)
                      and (name is None or shape[1] == name)
                      and (phase is None or shape[3] == phase)}
        # Rows take their values from one shared iterator, in order:
        # zip() stops at the end of a row's keys without taking more.
        # An identified row takes its (trace_id, span_id, parent_id)
        # from the ids iterator the same way; any other row's are 0.
        values = iter(self._values)
        ids = iter(self._ids)
        for shape, ts, dur in zip(*self._columns):
            cat, nm, node, ph, keys, identified = shape
            if wanted is not None and id(shape) not in wanted:
                for _ in keys:
                    next(values)
                if identified:
                    next(ids), next(ids), next(ids)
                continue
            event = _new(TraceEvent)
            _set(event, "ts", ts)
            _set(event, "category", cat)
            _set(event, "name", nm)
            _set(event, "node", node)
            _set(event, "attrs", dict(zip(keys, values)) if keys else {})
            _set(event, "phase", ph)
            _set(event, "dur", dur)
            if identified:
                _set(event, "trace_id", next(ids))
                _set(event, "span_id", next(ids))
                _set(event, "parent_id", next(ids))
            else:
                _set(event, "trace_id", 0)
                _set(event, "span_id", 0)
                _set(event, "parent_id", 0)
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
