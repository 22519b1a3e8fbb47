"""The :class:`Tracer`: the write-side API the simulated layers call.

A tracer owns (or shares) a :class:`~repro.trace.events.TraceLog` and
stamps every emission with the simulated clock of the
:class:`~repro.sim.Simulation` it is bound to.  Binding happens when the
tracer is passed as ``Simulation(trace=...)``; every layer living inside
that simulation then reaches the tracer as ``sim.trace`` — instrumented
code guards with ``if sim.trace is not None`` so a run without tracing
pays nothing beyond that None-check.

Spans are emitted retroactively from a start time the caller noted —
the cheapest form, since the hot paths already track start times for
their own statistics.  ``tracer.complete(name, start, **attrs)`` takes
everything per call; a hot emitter instead interns its span's shape
once with :meth:`Tracer.span_shape` and then emits
``tracer.span(shape, start, ctx, values)``, paying for no kwargs dict
and no shape lookup per span.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from .context import SpanContext
from .events import (_UNBOUND, PHASE_COUNTER, PHASE_INSTANT, PHASE_SPAN,
                     Shape, TraceLog)
from .metrics import Counter, Histogram, MetricsRegistry

_mint = tuple.__new__


class Tracer:
    """Stamps and emits trace events against one simulation's clock.

    Every emission also feeds the tracer's :attr:`metrics`, so a traced
    run ends with ready-made aggregates (span-duration histograms,
    event counts, latest counter values) that the CLI's ``--metrics``
    flag dumps as JSON — metrics ride the same event stream the trace
    does, with no second instrumentation pass.

    ``tracer.span(shape, start, ctx=None, values=())`` emits a span of
    a ``shape`` from :meth:`span_shape` that began at ``start`` and
    ends now.  ``ctx`` is its :class:`SpanContext`, given exactly when
    the shape is identified, and ``values`` its attr values in the
    shape's key order; ``start`` must be finite and in ``[0, now]``.
    It is the log's one row writer, so a hot emitter pays one call per
    span, and :meth:`complete`, :meth:`instant` and :meth:`counter`
    write through it too.

    Parameters
    ----------
    categories, max_events:
        Passed through to the tracer's :class:`TraceLog` (a category
        filter and a ring-buffer bound; unbounded and unfiltered when
        omitted).
    """

    def __init__(self, categories: Optional[Iterable[str]] = None,
                 max_events: Optional[int] = None):
        self.log = TraceLog(max_events=max_events, categories=categories)
        self.log._fold = self._fold
        self.span = self.log._write
        self._metrics = MetricsRegistry()
        self._next_id = 0
        # Span name -> its ("<name>.count", "<name>.duration_s") pair.
        self._span_metrics: Dict[str, Tuple[Counter, Histogram]] = {}

    # -- binding ---------------------------------------------------------

    def bind(self, sim) -> None:
        """Attach to ``sim``'s clock (done by ``Simulation(trace=...)``)."""
        clock = self.log._clock
        if clock is not _UNBOUND and clock is not sim:
            raise RuntimeError("tracer is already bound to another simulation")
        self.log._clock = sim

    # -- causal identity -------------------------------------------------

    def root_context(self) -> SpanContext:
        """Mint the identity of a new causal tree (trace_id == span_id)."""
        self._next_id += 1
        return _mint(SpanContext, (self._next_id, self._next_id, 0))

    def child_context(self, parent: Optional[SpanContext]) -> SpanContext:
        """Mint a child identity under ``parent`` (a root when None).

        Ids come from the tracer's own counter, so the context is built
        as one tuple without re-running ``SpanContext``'s checks.
        """
        if parent is None:
            return self.root_context()
        self._next_id += 1
        return _mint(SpanContext, (parent[0], self._next_id, parent[1]))

    # -- emission --------------------------------------------------------

    def span_shape(self, name: str, category: str, node: str = "",
                   keys: Tuple[str, ...] = (),
                   identified: bool = False) -> Shape:
        """Intern the shape of a span for :attr:`span`.

        ``keys`` names the span's attrs in order; ``identified`` says
        whether its spans carry a :class:`SpanContext`.  A hot emitter
        interns its shapes once, where it is built.
        """
        shape = (category, name, node, PHASE_SPAN, tuple(keys),
                 bool(identified))
        return self.log._interned.setdefault(shape, shape)

    def complete(self, name: str, start: float, category: str = "span",
                 node: str = "", ctx: Optional[SpanContext] = None,
                 **attrs: Any) -> None:
        """Emit a span that began at ``start`` and ends now.

        ``ctx`` stamps the span's causal identity
        (:class:`SpanContext`); omitted, the span stays a flat legacy
        record with all ids 0.  ``start`` must be finite and in
        ``[0, now]``.
        """
        shape = (category, name, node, PHASE_SPAN, tuple(attrs),
                 ctx is not None)
        self.span(self.log._interned.setdefault(shape, shape), start, ctx,
                  attrs.values())

    def instant(self, name: str, category: str = "event", node: str = "",
                **attrs: Any) -> None:
        """Emit a point-in-time marker at the current clock."""
        shape = (category, name, node, PHASE_INSTANT, tuple(attrs), False)
        log = self.log
        self.span(log._interned.setdefault(shape, shape), log._clock._now,
                  None, attrs.values())

    def counter(self, name: str, value: float, category: str = "counter",
                node: str = "", **attrs: Any) -> None:
        """Emit one sample of a numeric counter/gauge."""
        attrs["value"] = value
        shape = (category, name, node, PHASE_COUNTER, tuple(attrs), False)
        log = self.log
        self.span(log._interned.setdefault(shape, shape), log._clock._now,
                  None, attrs.values())

    # -- metrics ---------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """Counters, gauges and histograms of every emission so far.

        Folded from the log's rows when read: each span feeds
        ``"<name>.count"`` and the ``"<name>.duration_s"`` histogram,
        each instant ``"<name>.count"``, each counter sample the gauge
        ``name``.  Emissions the category filter drops count too; rows
        added by :meth:`TraceLog.append` do not.
        """
        self._fold()
        return self._metrics

    def _fold(self, emission: Optional[Tuple[str, str, Any]] = None
              ) -> None:
        """Fold the log rows emitted since the last fold into metrics.

        Runs when :attr:`metrics` is read, before the log trims rows
        not folded yet, before an appended row and at a filtered-out
        emission, whose ``(name, phase, sample)`` it folds last, so
        every metric sees the emissions in the order they were made.
        """
        for name, phase, sample in self.log._unfolded():
            self._fold_row(name, phase, sample)
        if emission is not None:
            self._fold_row(*emission)

    def _fold_row(self, name: str, phase: str, value: float) -> None:
        """Feed one emission into the metrics registry."""
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
