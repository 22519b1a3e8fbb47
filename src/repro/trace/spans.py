"""The :class:`Tracer`: the write-side API the simulated layers call.

A tracer owns (or shares) a :class:`~repro.trace.events.TraceLog` and
stamps every emission with the simulated clock of the
:class:`~repro.sim.Simulation` it is bound to.  Binding happens when the
tracer is passed as ``Simulation(trace=...)``; every layer living inside
that simulation then reaches the tracer as ``sim.trace`` — instrumented
code guards with ``if sim.trace is not None`` so a run without tracing
pays nothing beyond that None-check.

Spans are emitted retroactively with ``tracer.complete(name, start)``
from a start time the caller noted — the cheapest form, since the hot
paths already track start times for their own statistics.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from .context import SpanContext
from .events import PHASE_COUNTER, PHASE_INSTANT, PHASE_SPAN, TraceLog
from .metrics import Counter, Histogram, MetricsRegistry

#: The ids of a span emitted without a causal identity.
_NO_IDS = (0, 0, 0)

_new = object.__new__
_set = object.__setattr__


class _Unbound:
    """The clock of a tracer not bound to a simulation: always at 0."""

    _now = 0.0
    active_process = None


_UNBOUND = _Unbound()


class Tracer:
    """Stamps and emits trace events against one simulation's clock.

    Every emission also feeds the tracer's :attr:`metrics`, so a traced
    run ends with ready-made aggregates (span-duration histograms,
    event counts, latest counter values) that the CLI's ``--metrics``
    flag dumps as JSON — metrics ride the same event stream the trace
    does, with no second instrumentation pass.

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
        self._metrics = MetricsRegistry()
        self._sim = _UNBOUND
        self._next_id = 0
        # Span name -> its ("<name>.count", "<name>.duration_s") pair.
        self._span_metrics: Dict[str, Tuple[Counter, Histogram]] = {}

    # -- binding ---------------------------------------------------------

    def bind(self, sim) -> None:
        """Attach to ``sim``'s clock (done by ``Simulation(trace=...)``)."""
        if self._sim is not _UNBOUND and self._sim is not sim:
            raise RuntimeError("tracer is already bound to another simulation")
        self._sim = sim

    # -- causal identity -------------------------------------------------

    def root_context(self) -> SpanContext:
        """Mint the identity of a new causal tree (trace_id == span_id)."""
        return self.child_context(None)

    def child_context(self, parent: Optional[SpanContext]) -> SpanContext:
        """Mint a child identity under ``parent`` (a root when None).

        Ids come from the tracer's own counter, so the context is built
        field by field without re-running ``SpanContext``'s checks.
        """
        self._next_id += 1
        span_id = self._next_id
        ctx = _new(SpanContext)
        _set(ctx, "trace_id", span_id if parent is None else parent.trace_id)
        _set(ctx, "span_id", span_id)
        _set(ctx, "parent_id", 0 if parent is None else parent.span_id)
        return ctx

    # -- emission --------------------------------------------------------

    def instant(self, name: str, category: str = "event", node: str = "",
                **attrs: Any) -> None:
        """Emit a point-in-time marker at the current clock."""
        if not self.log._add(category, name, node, PHASE_INSTANT,
                             self._sim._now, 0.0, _NO_IDS, attrs):
            self._fold()
            self._fold_row(name, PHASE_INSTANT, 0.0)

    def counter(self, name: str, value: float, category: str = "counter",
                node: str = "", **attrs: Any) -> None:
        """Emit one sample of a numeric counter/gauge."""
        attrs["value"] = value
        if not self.log._add(category, name, node, PHASE_COUNTER,
                             self._sim._now, 0.0, _NO_IDS, attrs):
            self._fold()
            self._fold_row(name, PHASE_COUNTER, value)

    def complete(self, name: str, start: float, category: str = "span",
                 node: str = "", ctx: Optional[SpanContext] = None,
                 **attrs: Any) -> None:
        """Emit a span that began at ``start`` and ends now.

        ``ctx`` stamps the span's causal identity
        (:class:`SpanContext`); omitted, the span stays a flat legacy
        record with all ids 0.  ``start`` must be finite and in
        ``[0, now]``.
        """
        now = self._sim._now
        if not 0 <= start <= now:           # also rejects NaN
            if start > now:
                raise ValueError(f"span start {start} lies in the future "
                                 f"(now={now})")
            raise ValueError(f"span start must be finite and >= 0, "
                             f"got {start}")
        if not self.log._add(category, name, node, PHASE_SPAN, start,
                             now - start, _NO_IDS if ctx is None else
                             (ctx.trace_id, ctx.span_id, ctx.parent_id),
                             attrs):
            self._fold()
            self._fold_row(name, PHASE_SPAN, now - start)

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

    def _fold(self) -> None:
        """Fold the log rows emitted since the last fold into metrics.

        Runs when :attr:`metrics` is read, before the log trims rows
        not folded yet, before a filtered-out emission and before an
        appended row, so every metric sees the emissions in the order
        they were made.
        """
        for name, phase, sample in self.log._unfolded():
            self._fold_row(name, phase, sample)

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
