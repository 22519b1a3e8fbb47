"""Deriving paper-level results back out of a trace.

The point of these helpers is to make the trace a *correctness oracle*:
Table 7's connect/cache/db/total delay decomposition is normally
computed from the web servers' call logs
(:func:`repro.web.measure_delay_decomposition`); here the same
decomposition is re-derived purely from the ``web`` spans a traced run
emitted.  Agreement between the two (tests hold them to < 1 %) means
the trace faithfully covers the simulated request path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .events import PHASE_SPAN, TraceLog


@dataclass(frozen=True)
class TraceDecomposition:
    """Mean per-request delays (seconds) re-derived from web spans."""

    requests: int
    db_delay_s: float
    cache_delay_s: float
    total_delay_s: float
    connect_delay_s: float


def delay_decomposition_from_trace(log: TraceLog,
                                   after: float = 0.0) -> TraceDecomposition:
    """Recompute the Table 7 decomposition from ``web`` spans alone.

    Mirrors the call-log computation: only requests starting at or after
    ``after`` with status 200 count; database delay averages over
    cache-miss requests only (requests that have a ``db`` span); cache
    and total delays average over all counted requests.  Connect delay
    averages over the traced connection-establishment spans in the same
    window (one per connection, client-side).  The spans are read
    one at a time, never gathered into a list.
    """
    requests: Dict[int, float] = {}
    cache: Dict[int, float] = {}
    db: Dict[int, float] = {}
    connects = []
    for event in log._select(category="web", phase=PHASE_SPAN):
        if event.name == "connect":
            if event.ts >= after:
                connects.append(event.dur)
            continue
        rid: Optional[int] = event.attrs.get("req")
        if rid is None:
            continue
        if event.name == "request":
            if event.ts >= after and event.attrs.get("status") == 200:
                requests[rid] = event.dur
        elif event.name == "cache":
            cache[rid] = event.dur
        elif event.name == "db":
            db[rid] = event.dur
    if not requests:
        raise ValueError("trace holds no completed request spans "
                         "in the window")
    counted = list(requests)
    misses = [rid for rid in counted if rid in db]
    return TraceDecomposition(
        requests=len(counted),
        db_delay_s=(sum(db[r] for r in misses) / len(misses)
                    if misses else 0.0),
        cache_delay_s=sum(cache.get(r, 0.0) for r in counted) / len(counted),
        total_delay_s=sum(requests[r] for r in counted) / len(counted),
        connect_delay_s=(sum(connects) / len(connects) if connects else 0.0),
    )
