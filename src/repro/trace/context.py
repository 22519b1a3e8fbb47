"""Span identity: the W3C-traceparent-style context that links spans.

A :class:`SpanContext` is the identity a unit of work carries with it —
the ``trace_id`` naming the whole causal tree (one client connection,
one MapReduce job), its own ``span_id``, and the ``span_id`` of the
parent that caused it.  Contexts are minted by the bound
:class:`~repro.trace.Tracer` (:meth:`~repro.trace.Tracer.root_context`
and :meth:`~repro.trace.Tracer.child_context`) so instrumented code
never constructs ids by hand, and ``0`` everywhere means "no identity"
— the value legacy events carry, keeping old traces loadable.

The analysis side lives in :mod:`repro.causality`, which folds a
:class:`~repro.trace.TraceLog` of identified spans back into a forest.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SpanContext:
    """Identity of one span inside one causal tree.

    ``trace_id`` is shared by every span in the tree and equals the root
    span's ``span_id``.  ``parent_id`` is 0 for roots.  All ids are
    positive ints drawn from the tracer's single deterministic counter,
    so identical seeds yield identical ids.
    """

    trace_id: int
    span_id: int
    parent_id: int

    def __post_init__(self):
        if self.trace_id <= 0 or self.span_id <= 0:
            raise ValueError("trace_id and span_id must be > 0")
        if self.parent_id < 0:
            raise ValueError("parent_id must be >= 0")
