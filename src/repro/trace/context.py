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

from operator import itemgetter


class SpanContext(tuple):
    """Identity of one span inside one causal tree.

    ``trace_id`` is shared by every span in the tree and equals the root
    span's ``span_id``.  ``parent_id`` is 0 for roots.  All ids are
    positive ints drawn from the tracer's single deterministic counter,
    so identical seeds yield identical ids.

    A context is the immutable tuple ``(trace_id, span_id, parent_id)``
    read through C-level item getters, so the tracer mints one with a
    single ``tuple.__new__`` and a log stores it as its three ids as
    they stand.  The public constructor checks the ids.
    """

    __slots__ = ()

    def __new__(cls, trace_id: int, span_id: int, parent_id: int):
        if trace_id <= 0 or span_id <= 0:
            raise ValueError("trace_id and span_id must be > 0")
        if parent_id < 0:
            raise ValueError("parent_id must be >= 0")
        return tuple.__new__(cls, (trace_id, span_id, parent_id))

    trace_id = property(itemgetter(0), doc="Id of the causal tree.")
    span_id = property(itemgetter(1), doc="Id of this span.")
    parent_id = property(itemgetter(2), doc="Id of the causing span "
                                            "(0 for roots).")

    def __getnewargs__(self):
        return tuple(self)

    def __eq__(self, other):
        return type(other) is SpanContext and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        return (f"SpanContext(trace_id={self[0]!r}, span_id={self[1]!r}, "
                f"parent_id={self[2]!r})")
