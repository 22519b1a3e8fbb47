"""Counters, gauges and log-bucketed latency histograms.

The paper reports 95th-percentile delays (Section 5.1.3); a
:class:`Histogram` with logarithmic buckets supplies those percentiles
from real samples in O(buckets) memory rather than retaining every
observation.  The bucket growth factor bounds the relative error of any
percentile estimate: with the default ``growth = 1.08`` an estimate is
within ±4 % of the exact order statistic.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

#: Percentiles a registry snapshot reports per histogram.
SNAPSHOT_PERCENTILES = (50.0, 95.0)


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self) -> None:
        self.value += 1.0


class Gauge:
    """A value that moves both ways (queue depth, occupancy, watts)."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Log-bucketed value distribution with percentile estimation.

    Values at or below ``floor`` share an underflow bucket; above it,
    bucket *i* covers ``(floor * growth**(i-1), floor * growth**i]`` so
    bucket count grows logarithmically with the dynamic range.  The
    exact minimum and maximum are tracked so extreme percentiles clamp
    to observed values.
    """

    def __init__(self, name: str = "histogram", growth: float = 1.08,
                 floor: float = 1e-9):
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        if floor <= 0:
            raise ValueError(f"floor must be > 0, got {floor}")
        self.name = name
        self.growth = growth
        self.floor = floor
        self._log_growth = math.log(growth)
        self._counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def _bucket(self, value: float) -> int:
        if value <= self.floor:
            return 0
        return 1 + math.floor(math.log(value / self.floor)
                              / self._log_growth * (1 - 1e-12))

    def _bounds(self, index: int) -> Tuple[float, float]:
        if index == 0:
            return (0.0, self.floor)
        return (self.floor * self.growth ** (index - 1),
                self.floor * self.growth ** index)

    def observe(self, value: float) -> None:
        """Record one sample (must be >= 0)."""
        if value < 0:
            raise ValueError(f"histogram values must be >= 0, got {value}")
        # _bucket() and min()/max() inlined: every traced span lands
        # here.  The arithmetic is _bucket's, so buckets are identical.
        if value <= self.floor:
            index = 0
        else:
            index = 1 + math.floor(math.log(value / self.floor)
                                   / self._log_growth * (1 - 1e-12))
        counts = self._counts
        counts[index] = counts.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def mean(self) -> float:
        if self.count == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        return self.total / self.count

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile estimate, ``p`` in [0, 100].

        Returns the geometric midpoint of the bucket holding the rank,
        clamped to the observed minimum/maximum, so the estimate is
        within a factor ``sqrt(growth)`` of the exact order statistic.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"p must be in [0, 100], got {p}")
        if self.count == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        rank = max(1, math.ceil(p / 100.0 * self.count))
        # The extreme ranks are tracked exactly; returning them directly
        # clamps both tails (a bucket midpoint can otherwise exceed the
        # observed minimum at p=0, the mirror of the p=100 clamp).
        if rank == 1:
            return self._min
        if rank == self.count:
            return self._max
        cumulative = 0
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            if cumulative >= rank:
                low, high = self._bounds(index)
                estimate = self.floor if index == 0 \
                    else math.sqrt(low * high)
                # Clamp into the bucket's own bounds intersected with
                # the tracked extremes.  Bucket intervals are disjoint
                # and increasing and the extremes are rank-independent,
                # so estimates are monotone non-decreasing in p by
                # construction — including across the exact-tracked
                # tails: rank 1 (= min) never exceeds rank 2's clamp
                # floor, and rank count-1's clamp ceiling never
                # exceeds rank count (= max).  A seeded property test
                # pins this invariant.
                return min(max(estimate, low, self._min),
                           high, self._max)
        raise AssertionError("unreachable: rank exceeds total count")

class MetricsRegistry:
    """Named get-or-create registry of counters, gauges and histograms."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str, growth: float = 1.08,
                  floor: float = 1e-9) -> Histogram:
        """Get or create ``name``; re-registering with another bucket
        layout (``growth``/``floor``) raises ValueError."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name, growth=growth,
                                                      floor=floor)
        elif hist.growth != growth or hist.floor != floor:
            raise ValueError(
                f"histogram {name!r} exists with growth={hist.growth}, "
                f"floor={hist.floor}; asked for growth={growth}, "
                f"floor={floor}")
        return hist

    def snapshot(self) -> Dict:
        """All metric values as one JSON-friendly dict; histograms give
        their count, mean and :data:`SNAPSHOT_PERCENTILES`."""
        out: Dict[str, object] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, hist in self._histograms.items():
            if hist.count == 0:
                out[name] = {"count": 0}
                continue
            out[name] = {"count": hist.count, "mean": hist.mean(),
                         **{f"p{int(p) if p == int(p) else p}":
                            hist.percentile(p) for p in SNAPSHOT_PERCENTILES}}
        return out
