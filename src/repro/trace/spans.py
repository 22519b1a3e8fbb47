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


class _Unbound:
    """The clock of a tracer not bound to a simulation: always at 0."""

    _now = 0.0
    active_process = None


_UNBOUND = _Unbound()


class Tracer:
    """Stamps and emits trace events against one simulation's clock.

    Every emission also feeds the tracer's :class:`MetricsRegistry`, so
    a traced run ends with ready-made aggregates (span-duration
    histograms, event counts, latest counter values) that the CLI's
    ``--metrics`` flag dumps as JSON — metrics ride the same event
    stream the trace does, with no second instrumentation pass.

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
        self.metrics = MetricsRegistry()
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

    def next_id(self) -> int:
        """A fresh tracer-unique integer id (for correlating spans)."""
        self._next_id += 1
        return self._next_id

    # -- causal identity -------------------------------------------------

    def root_context(self) -> SpanContext:
        """Mint the identity of a new causal tree (trace_id == span_id)."""
        span_id = self.next_id()
        return SpanContext(trace_id=span_id, span_id=span_id, parent_id=0)

    def child_context(self, parent: Optional[SpanContext]) -> SpanContext:
        """Mint a child identity under ``parent`` (a root when None)."""
        if parent is None:
            return self.root_context()
        return SpanContext(trace_id=parent.trace_id, span_id=self.next_id(),
                           parent_id=parent.span_id)

    # -- emission --------------------------------------------------------

    def instant(self, name: str, category: str = "event", node: str = "",
                **attrs: Any) -> None:
        """Emit a point-in-time marker at the current clock."""
        self.metrics.counter(f"{name}.count").inc()
        self.log._record(self._sim._now, category, name, node, attrs,
                         PHASE_INSTANT, 0.0, 0, 0, 0)

    def counter(self, name: str, value: float, category: str = "counter",
                node: str = "", **attrs: Any) -> None:
        """Emit one sample of a numeric counter/gauge."""
        self.metrics.gauge(name).set(value)
        attrs["value"] = value
        self.log._record(self._sim._now, category, name, node, attrs,
                         PHASE_COUNTER, 0.0, 0, 0, 0)

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
        dur = now - start
        metrics = self._span_metrics.get(name)
        if metrics is None:
            metrics = self._span_metrics[name] = (
                self.metrics.counter(f"{name}.count"),
                self.metrics.histogram(f"{name}.duration_s"))
        metrics[0].inc()
        metrics[1].observe(dur)
        if ctx is None:
            self.log._record(start, category, name, node, attrs, PHASE_SPAN,
                             dur, 0, 0, 0)
        else:
            self.log._record(start, category, name, node, attrs, PHASE_SPAN,
                             dur, ctx.trace_id, ctx.span_id, ctx.parent_id)
