"""The :class:`Tracer`: the write-side API the simulated layers call.

A tracer owns (or shares) a :class:`~repro.trace.events.TraceLog` and
stamps every emission with the simulated clock of the
:class:`~repro.sim.Simulation` it is bound to.  Binding happens when the
tracer is passed as ``Simulation(trace=...)``; every layer living inside
that simulation then reaches the tracer as ``sim.trace`` — instrumented
code guards with ``if sim.trace is not None`` so a run without tracing
pays nothing beyond that None-check.

Spans may be emitted two ways:

* ``tracer.complete(name, start)`` — record a span retroactively from a
  start time the caller noted; the cheapest form, used on hot paths
  which already track start times for their own statistics.
* ``with tracer.span(name, node=...):`` — a context manager for process
  generators; nesting is tracked per simulated process, so concurrently
  interleaved processes do not corrupt each other's span stacks.
"""

from __future__ import annotations

from contextlib import contextmanager
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
    log:
        The destination :class:`TraceLog`; a fresh unbounded one is
        created when omitted.
    categories, max_events:
        Convenience pass-through to the created log (ignored when an
        explicit ``log`` is given).
    metrics:
        The registry fed by emissions; a fresh one when omitted.
    """

    def __init__(self, log: Optional[TraceLog] = None,
                 categories: Optional[Iterable[str]] = None,
                 max_events: Optional[int] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.log = log if log is not None else TraceLog(
            max_events=max_events, categories=categories)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._sim = _UNBOUND
        self._next_id = 0
        # Span name -> its ("<name>.count", "<name>.duration_s") pair.
        self._span_metrics: Dict[str, Tuple[Counter, Histogram]] = {}
        # Per-process span stacks: active-process id -> [span ids].
        self._stacks: Dict[int, list] = {}

    # -- binding ---------------------------------------------------------

    def bind(self, sim) -> None:
        """Attach to ``sim``'s clock (done by ``Simulation(trace=...)``)."""
        if self._sim is not _UNBOUND and self._sim is not sim:
            raise RuntimeError("tracer is already bound to another simulation")
        self._sim = sim

    @property
    def now(self) -> float:
        """Current simulated time (0.0 while unbound)."""
        return self._sim._now

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

    def enabled_for(self, category: str) -> bool:
        """True when the log would keep events of ``category``."""
        return self.log.accepts(category)

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

    @contextmanager
    def span(self, name: str, category: str = "span", node: str = "",
             **attrs: Any):
        """Context manager emitting a complete span around its body.

        Usable inside process generators around ``yield from`` blocks::

            with tracer.span("shuffle", node=node):
                yield from self._shuffle(...)

        Nesting depth and parentage are tracked per simulated process
        (keyed on the simulation's active process), so interleaved
        processes keep independent stacks.  Yields the span id.

        The emitted span carries a full :class:`SpanContext` (nested
        spans share the outermost span's trace_id).  When the body is
        torn down by a kernel interrupt or an abandoned generator, the
        span still closes — tagged ``aborted`` with the interrupt's
        fault kind — so critical-path walks never see dangling spans.
        """
        start = self._sim._now
        process = self._sim.active_process
        key = id(process) if process is not None else 0
        stack = self._stacks.setdefault(key, [])
        parent: Optional[SpanContext] = stack[-1] if stack else None
        ctx = self.child_context(parent)
        stack.append(ctx)
        try:
            yield ctx.span_id
        except BaseException as exc:
            cause = getattr(exc, "cause", None)
            if cause is not None:
                attrs["aborted"] = getattr(cause, "kind", None) \
                    or type(cause).__name__
            elif isinstance(exc, GeneratorExit):
                attrs["aborted"] = "abandoned"
            raise
        finally:
            stack.pop()
            if not stack:
                self._stacks.pop(key, None)
            attrs["span_id"] = ctx.span_id
            attrs["depth"] = len(stack)
            if parent is not None:
                attrs["parent"] = parent.span_id
            self.complete(name, start, category=category, node=node,
                          ctx=ctx, **attrs)
