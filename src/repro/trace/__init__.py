"""repro.trace — structured tracing, metrics and profiling.

The observability subsystem for every simulated layer: a bounded
append-only :class:`TraceLog` of :class:`TraceEvent` records, a
:class:`Tracer` that layers emit spans/instants/counters through, a
:class:`MetricsRegistry` of counters/gauges/log-bucketed
:class:`Histogram` percentiles, and exporters to Chrome trace-event
JSON (Perfetto-loadable), JSON-lines and CSV.

Enable tracing by constructing the simulation with a tracer::

    from repro.sim import Simulation
    from repro.trace import Tracer

    tracer = Tracer()
    sim = Simulation(trace=tracer)
    ...  # run anything; layers emit through sim.trace
    from repro.trace import write_chrome_trace
    write_chrome_trace(tracer.log, "out.json")

When no tracer is attached (``trace=None``, the default) every
instrumented path reduces to a single None-check — no events, no
allocation, identical simulation results.

The log keeps its events in columns, one row per emission: each row
holds one slot pointing at its interned
``(category, name, node, phase, attr keys, identified)`` shape,
``ts``/``dur`` in ``array("d")`` columns and its attr values in one flat
list; only rows that carry a :class:`SpanContext` store their three span
ids, in one ``array("q")`` column.  A row retains about 44 bytes rather
than a boxed float and an attrs dict of its own (see
:mod:`repro.trace.events`).  The tracer's :attr:`Tracer.metrics` are
folded from those rows when read, not fed at every emission.
:class:`TraceEvent` objects, each with a fresh ``attrs`` dict, are built
only when the log is read (iteration, :meth:`TraceLog.events` and its
``spans``/``counters`` narrowings, the exporters,
:func:`repro.causality.build_forest`).
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".analysis": ("TraceDecomposition", "delay_decomposition_from_trace"),
    ".context": ("SpanContext",),
    ".events": ("PHASE_COUNTER", "PHASE_INSTANT", "PHASE_SPAN", "TraceEvent",
                "TraceLog"),
    ".export": ("read_csv", "read_jsonl", "to_chrome_trace",
                "write_chrome_trace", "write_csv", "write_jsonl"),
    ".metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    ".spans": ("Tracer",),
})
