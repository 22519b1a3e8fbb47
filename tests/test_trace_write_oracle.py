"""Float-for-float oracle for the trace write path.

``OracleLog`` and ``OracleTracer`` are the write path as it was before
emitters interned their shapes and only identified rows stored span
ids: every row paid for a kwargs dict, a fresh shape tuple and three
id slots, and went ``complete`` -> ``_add``.  They are copied with only
their plumbing adapted.  Seeded soups of spans (with and without a
context, through ``complete`` and through interned shapes), instants,
counters, appended outside events and interleaved metrics reads drive
the shipped :class:`~repro.trace.Tracer` and the oracle side by side,
under a category filter and a ring buffer that trims mid-soup, and
every read must be equal (``==``, never ``approx``).
"""

import math
import random
from array import array

import pytest

from repro.trace import (PHASE_COUNTER, PHASE_INSTANT, PHASE_SPAN,
                         TraceEvent, Tracer)
from repro.trace.metrics import MetricsRegistry

_NO_IDS = (0, 0, 0)
_new = object.__new__
_set = object.__setattr__


class OracleLog:
    """The columns as they were: three id slots on every row."""

    def __init__(self, max_events=None, categories=None):
        self.max_events = max_events
        self.categories = (frozenset(categories) if categories is not None
                           else None)
        self._shapes = []
        self._ts = array("d")
        self._dur = array("d")
        self._columns = (self._shapes, self._ts, self._dur)
        self._ids = array("q")
        self._values = []
        self._interned = {}
        self._trim_at = (max_events + max(max_events // 4, 64)
                         if max_events is not None else None)
        self.accepted = 0
        self.filtered = 0
        self._fold = None
        self._folded = 0

    def accepts(self, category):
        return self.categories is None or category in self.categories

    def append(self, event):
        if self._fold is not None and self.accepts(event.category):
            self._fold()
            self._folded += 1
        return self._add(event.category, event.name, event.node,
                         event.phase, event.ts, event.dur,
                         (event.trace_id, event.span_id, event.parent_id),
                         event.attrs)

    def _add(self, category, name, node, phase, ts, dur, ids, attrs):
        if self.categories is not None and category not in self.categories:
            self.filtered += 1
            return False
        shape = (category, name, node, phase, tuple(attrs) if attrs else ())
        self._ids.extend(ids)
        self._ts.append(ts)
        self._dur.append(dur)
        self._shapes.append(self._interned.setdefault(shape, shape))
        if attrs:
            self._values.extend(attrs.values())
        self.accepted += 1
        if self._trim_at is not None and len(self._ts) > self._trim_at:
            self._trim()
        return True

    def _unfolded(self):
        pending = self.accepted - self._folded
        self._folded = self.accepted
        if pending <= 0:
            return
        shapes = self._shapes[-pending:]
        values = self._values
        end = len(values) - sum(len(keys) for *_, keys in shapes)
        for (_, name, _, phase, keys), dur in zip(shapes,
                                                  self._dur[-pending:]):
            end += len(keys)
            yield (name, phase,
                   values[end - 1] if phase == PHASE_COUNTER else dur)

    def _trim(self):
        excess = len(self._ts) - self.max_events \
            if self.max_events is not None else 0
        if excess > 0:
            if self._fold is not None and self._folded < self.accepted:
                self._fold()
            del self._values[:sum(len(keys)
                                  for *_, keys in self._shapes[:excess])]
            del self._ids[:3 * excess]
            for column in self._columns:
                del column[:excess]

    @property
    def evicted(self):
        return self.accepted - len(self)

    def __len__(self):
        if self.max_events is not None:
            return min(len(self._ts), self.max_events)
        return len(self._ts)

    def _select(self, category=None, name=None, phase=None):
        self._trim()
        wanted = None
        if category is not None or name is not None or phase is not None:
            wanted = {id(shape) for shape in self._interned
                      if (category is None or shape[0] == category)
                      and (name is None or shape[1] == name)
                      and (phase is None or shape[3] == phase)}
        values = iter(self._values)
        ids = iter(self._ids)
        for (shape, ts, dur, trace_id, span_id,
             parent_id) in zip(*self._columns, ids, ids, ids):
            cat, nm, node, ph, keys = shape
            if wanted is not None and id(shape) not in wanted:
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

    def events(self, category=None, name=None, phase=None):
        return list(self._select(category, name, phase))


class OracleTracer:
    """``complete``/``instant``/``counter`` and the metrics fold as they
    were; contexts come from the shipped tracer, read by attribute."""

    def __init__(self, clock, categories=None, max_events=None):
        self.log = OracleLog(max_events=max_events, categories=categories)
        self.log._fold = self._fold
        self._metrics = MetricsRegistry()
        self._sim = clock
        self._span_metrics = {}

    def instant(self, name, category="event", node="", **attrs):
        if not self.log._add(category, name, node, PHASE_INSTANT,
                             self._sim._now, 0.0, _NO_IDS, attrs):
            self._fold()
            self._fold_row(name, PHASE_INSTANT, 0.0)

    def counter(self, name, value, category="counter", node="", **attrs):
        attrs["value"] = value
        if not self.log._add(category, name, node, PHASE_COUNTER,
                             self._sim._now, 0.0, _NO_IDS, attrs):
            self._fold()
            self._fold_row(name, PHASE_COUNTER, value)

    def complete(self, name, start, category="span", node="", ctx=None,
                 **attrs):
        now = self._sim._now
        if not 0 <= start <= now:
            raise ValueError(f"bad span start {start}")
        if not self.log._add(category, name, node, PHASE_SPAN, start,
                             now - start, _NO_IDS if ctx is None else
                             (ctx.trace_id, ctx.span_id, ctx.parent_id),
                             attrs):
            self._fold()
            self._fold_row(name, PHASE_SPAN, now - start)

    @property
    def metrics(self):
        self._fold()
        return self._metrics

    def _fold(self):
        for name, phase, sample in self.log._unfolded():
            self._fold_row(name, phase, sample)

    def _fold_row(self, name, phase, value):
        if phase == PHASE_SPAN:
            metrics = self._span_metrics.get(name)
            if metrics is None:
                metrics = self._span_metrics[name] = (
                    self._metrics.counter(f"{name}.count"),
                    self._metrics.histogram(f"{name}.duration_s"))
            metrics[0].inc()
            metrics[1].observe(value)
        elif phase == PHASE_INSTANT:
            self._metrics.counter(f"{name}.count").inc()
        else:
            self._metrics.gauge(name).set(value)


class Clock:
    """The one field of a simulation a tracer reads."""

    _now = 0.0


NAMES = ("request", "cache", "db.hold")
CATEGORIES = ("web", "resource", "kernel", "power", "event")
NODES = ("", "web-0", "cache-1")
KEYS = ((), ("req",), ("req", "status"), ("ok",))


def _assert_reads_equal(tracer, oracle):
    log, old = tracer.log, oracle.log
    assert log.events() == old.events()
    assert list(log) == old.events()
    for category in CATEGORIES:
        assert log.events(category=category) == old.events(category=category)
    for name in NAMES + ("mark", "gauge"):
        assert log.events(name=name) == old.events(name=name)
        assert (log.spans(category="web", name=name)
                == old.events(category="web", name=name, phase=PHASE_SPAN))
    for phase in (PHASE_SPAN, PHASE_INSTANT, PHASE_COUNTER):
        assert log.events(phase=phase) == old.events(phase=phase)
    assert log.counters() == old.events(phase=PHASE_COUNTER)
    assert len(log) == len(old)
    assert log.evicted == old.evicted
    assert log.filtered == old.filtered
    assert log.accepted == old.accepted


def _metrics_equal(tracer, oracle):
    assert (list(tracer.metrics.snapshot().items())
            == list(oracle.metrics.snapshot().items()))


@pytest.mark.parametrize("seed,max_events,categories", [
    (1, None, None),
    (2, None, ("web", "power", "event")),
    (3, 50, None),
    (4, 37, ("web", "kernel", "event")),
    (5, 1, None),
    (6, 200, ("resource",)),
])
def test_write_path_matches_the_oracle(seed, max_events, categories):
    rng = random.Random(seed)
    clock = Clock()
    tracer = Tracer(categories=categories, max_events=max_events)
    tracer.bind(clock)
    oracle = OracleTracer(clock, categories=categories,
                          max_events=max_events)
    shapes = {}
    for step in range(1500):
        clock._now += rng.choice((0.0, 0.001, 0.25, 3.0))
        start = rng.choice((clock._now, 0.0, rng.uniform(0, clock._now)))
        name, category, node = (rng.choice(NAMES), rng.choice(CATEGORIES),
                                rng.choice(NODES))
        keys = rng.choice(KEYS)
        values = tuple(rng.choice((step, 200, True, "x", 0.5))
                       for _ in keys)
        attrs = dict(zip(keys, values))
        ctx = rng.choice((None, tracer.root_context(),
                          tracer.child_context(tracer.root_context())))
        kind = rng.randrange(7)
        if kind == 0:
            tracer.complete(name, start, category=category, node=node,
                            ctx=ctx, **attrs)
            oracle.complete(name, start, category=category, node=node,
                            ctx=ctx, **attrs)
        elif kind in (1, 2):
            key = (name, category, node, keys, ctx is not None)
            shape = shapes.get(key)
            if shape is None:
                shape = shapes[key] = tracer.span_shape(
                    name, category, node, keys, ctx is not None)
            tracer.span(shape, start, ctx, values)
            oracle.complete(name, start, category=category, node=node,
                            ctx=ctx, **attrs)
        elif kind == 3:
            tracer.instant("mark", category=category, node=node, **attrs)
            oracle.instant("mark", category=category, node=node, **attrs)
        elif kind == 4:
            value = rng.uniform(-5, 5)
            tracer.counter("gauge", value, category=category, node=node,
                           **attrs)
            oracle.counter("gauge", value, category=category, node=node,
                           **attrs)
        elif kind == 5:
            ids = rng.choice((_NO_IDS, (7, 9, 8), (0, 4, 0)))
            event = TraceEvent(ts=start, category=category, name=name,
                               node=node, attrs=attrs,
                               phase=rng.choice((PHASE_SPAN, PHASE_INSTANT,
                                                 PHASE_COUNTER)),
                               dur=rng.choice((0.0, 0.1, 0.2)),
                               trace_id=ids[0], span_id=ids[1],
                               parent_id=ids[2])
            assert tracer.log.append(event) == oracle.log.append(event)
        else:
            _metrics_equal(tracer, oracle)
        if step % 250 == 0:
            _assert_reads_equal(tracer, oracle)
    _assert_reads_equal(tracer, oracle)
    _metrics_equal(tracer, oracle)


@pytest.mark.parametrize("start", [math.nan, -1.0, 10.5, math.inf])
def test_bad_span_starts_still_raise(start):
    clock = Clock()
    clock._now = 10.0
    tracer = Tracer()
    tracer.bind(clock)
    shape = tracer.span_shape("hold", "resource")
    with pytest.raises(ValueError):
        tracer.span(shape, start)
    with pytest.raises(ValueError):
        tracer.complete("hold", start, category="resource")
    assert len(tracer.log) == 0 and tracer.log.accepted == 0
    assert tracer.metrics.snapshot() == {}


def test_a_row_must_match_its_shape():
    tracer = Tracer()
    plain = tracer.span_shape("hold", "resource")
    identified = tracer.span_shape("request", "web", "web-0", ("req",), True)
    ctx = tracer.root_context()
    for shape, ctx_, values in ((plain, ctx, ()), (identified, None, (1,)),
                                (identified, ctx, ()),
                                (identified, ctx, (1, 2))):
        with pytest.raises(ValueError):
            tracer.span(shape, 0.0, ctx_, values)
    assert tracer.log.accepted == 0
    tracer.span(identified, 0.0, ctx, (1,))
    (event,) = tracer.log.events()
    assert (event.trace_id, event.span_id, event.parent_id) == tuple(ctx)
    assert event.attrs == {"req": 1}
