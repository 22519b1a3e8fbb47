"""Exemplar-linked histograms: from a latency bucket to a trace.

OpenMetrics-style exemplars attach a representative trace id to each
histogram bucket, so an SLO report's "p95 regressed" line links to an
actual causal tree that exhibits the regression.  The store is fully
deterministic and touches no RNG: each log-spaced bucket keeps the
*worst* (largest-value) observation it has seen, first-seen winning
ties — so same seed always yields byte-identical exemplars, and
enabling the store can never perturb the simulation's random streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..trace.metrics import Histogram


@dataclass(frozen=True)
class Exemplar:
    """One bucket's representative observation."""

    value: float
    trace_id: int
    bucket: int

    def to_dict(self) -> Dict[str, object]:
        return {"value": self.value, "trace_id": self.trace_id,
                "bucket": self.bucket}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Exemplar":
        return cls(value=float(data["value"]),
                   trace_id=int(data["trace_id"]),
                   bucket=int(data["bucket"]))


class ExemplarStore:
    """Keeps the worst trace-linked observation per histogram bucket.

    Bucketing is :class:`~repro.trace.metrics.Histogram`'s default
    growth and floor, so exemplars line up one-to-one with the
    telemetry latency histogram's buckets.
    """

    def __init__(self):
        # Reuse Histogram purely for its bucket arithmetic.
        self._buckets = Histogram("exemplars")
        self._by_bucket: Dict[int, Exemplar] = {}

    def observe(self, value: float, trace_id: int) -> None:
        """Consider one observation; kept only if it beats its bucket."""
        if trace_id <= 0:
            return
        index = self._buckets._bucket(value)
        cur = self._by_bucket.get(index)
        if cur is None or value > cur.value:
            self._by_bucket[index] = Exemplar(value=value,
                                              trace_id=trace_id,
                                              bucket=index)

    def __len__(self) -> int:
        return len(self._by_bucket)

    def exemplars(self) -> List[Exemplar]:
        """All kept exemplars, ordered by bucket (ascending value)."""
        return [self._by_bucket[i] for i in sorted(self._by_bucket)]

    def worst(self) -> Optional[Exemplar]:
        """The largest-value exemplar overall (the trace to look at)."""
        if not self._by_bucket:
            return None
        return max(self._by_bucket.values(),
                   key=lambda ex: (ex.value, -ex.bucket))

    def to_dict(self) -> List[Dict[str, object]]:
        return [ex.to_dict() for ex in self.exemplars()]

    @classmethod
    def from_dict(cls, data: List[Dict[str, object]]) -> "ExemplarStore":
        store = cls()
        for item in data:
            ex = Exemplar.from_dict(item)
            store._by_bucket[ex.bucket] = ex
        return store
