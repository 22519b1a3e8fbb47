"""Grid signals on the simulation clock.

A :class:`SignalTrace` is a time-indexed scalar — carbon intensity in
gCO2/kWh or an electricity tariff in $/kWh — queryable at any simulated
second.  Two interpolation modes cover the two data sources the carbon
plane replays:

* ``step`` — the value holds from each point until the next, which is
  how published day-ahead tariffs and most grid-intensity APIs quote
  (one value per settlement block);
* ``linear`` — straight lines between points, for smooth synthetic
  shapes.

Traces serialise to/from JSON so a committed experiment carries its
grid day verbatim, and :meth:`SignalTrace.steps` renders any trace as
the piecewise-constant ``(start_s, rate)`` sequence
:func:`repro.tco.weighted_energy_rate` integrates against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.records import Record, domain

#: Grid resolution used when a non-step trace must be rendered as
#: steps, and when scanning for threshold crossings.
STEP_S = 30.0


@dataclass(frozen=True)
class SignalTrace(Record):
    """One grid signal: sorted ``(time_s, value)`` points plus a unit."""

    name: str
    unit: str                                    # "gCO2/kWh" | "usd/kWh"
    points: Tuple[Tuple[float, float], ...] = domain(
        ">= 0", decode=lambda points: tuple((t, v) for t, v in points))
    interpolation: str = "step"                  # "step" | "linear"
    #: When set, the trace repeats with this period (a one-day shape
    #: can score a multi-day run); when ``None`` the edge values hold.
    period_s: Optional[float] = domain("> 0", default=None)

    def __post_init__(self):
        super().__post_init__()
        if self.interpolation not in ("step", "linear"):
            raise ValueError(
                f"unknown interpolation {self.interpolation!r}")
        if not self.points:
            raise ValueError("a trace needs at least one point")
        times = [t for t, _ in self.points]
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("points must be strictly sorted by time")
        if self.period_s is not None and self.period_s <= times[-1]:
            raise ValueError("period_s must exceed the last point time")

    # -- queries ----------------------------------------------------------

    def _fold(self, time_s: float) -> float:
        if self.period_s is None:
            return time_s
        return time_s % self.period_s

    def at(self, time_s: float) -> float:
        """The signal value at simulated ``time_s``."""
        t = self._fold(time_s)
        points = self.points
        if t <= points[0][0]:
            if self.interpolation == "linear" and self.period_s is not None:
                # Wrap: interpolate from the last point across midnight.
                t0, v0 = points[-1]
                t1, v1 = points[0][0] + self.period_s, points[0][1]
                tt = t + self.period_s
                return v0 + (v1 - v0) * (tt - t0) / (t1 - t0)
            return points[0][1]
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            if t < t1:
                if self.interpolation == "step":
                    return v0
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        t0, v0 = points[-1]
        if self.interpolation == "linear" and self.period_s is not None:
            t1, v1 = points[0][0] + self.period_s, points[0][1]
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        return v0

    def span(self) -> Tuple[float, float]:
        """The native domain: one period, or first..last point."""
        if self.period_s is not None:
            return 0.0, self.period_s
        return self.points[0][0], self.points[-1][0]

    def percentile(self, pct: float) -> float:
        """Time-weighted percentile of the signal over its span.

        Sampled on a uniform grid so a short price spike counts by its
        duration, not by how many points describe it — which is what a
        "defer while above the 60th percentile" policy means.
        """
        if not 0 <= pct <= 100:
            raise ValueError("pct must be in [0, 100]")
        start, end = self.span()
        if end <= start:
            return self.points[0][1]
        n = max(2, int(math.ceil((end - start) / STEP_S)))
        values = sorted(self.at(start + (end - start) * i / n)
                        for i in range(n))
        index = min(len(values) - 1,
                    max(0, math.ceil(pct / 100.0 * len(values)) - 1))
        return values[index]

    def next_at_or_below(self, threshold: float, time_s: float,
                         horizon_s: float) -> Optional[float]:
        """Earliest ``t >= time_s`` (within the horizon) with
        ``at(t) <= threshold``, or ``None`` if the signal never dips."""
        if horizon_s < 0:
            raise ValueError("horizon_s must be >= 0")
        t = time_s
        end = time_s + horizon_s
        while t <= end:
            if self.at(t) <= threshold:
                return t
            t += STEP_S
        return None

    def steps(self, start_s: float,
              end_s: float) -> List[Tuple[float, float]]:
        """Piecewise-constant rendering of ``[start_s, end_s]``.

        For a non-periodic step trace this is exact (the trace's own
        points, clipped); anything smoother or periodic is resampled on
        a :data:`STEP_S` grid.  The first step always starts at
        ``start_s`` so :func:`repro.tco.weighted_energy_rate` covers the
        whole window.
        """
        if end_s < start_s:
            raise ValueError("end_s must be >= start_s")
        exact = self.period_s is None or (start_s >= 0
                                          and end_s <= self.period_s)
        if self.interpolation == "step" and exact:
            out = [(start_s, self.at(start_s))]
            for t, v in self.points:
                if start_s < t < end_s:
                    out.append((t, v))
            return out
        out = []
        t = start_s
        while t < end_s:
            out.append((t, self.at(t)))
            t += STEP_S
        return out or [(start_s, self.at(start_s))]

    def mean(self) -> float:
        """Time-weighted mean over the trace's span."""
        start, end = self.span()
        if end <= start:
            return self.points[0][1]
        n = max(2, int(math.ceil((end - start) / STEP_S)))
        return sum(self.at(start + (end - start) * i / n)
                   for i in range(n)) / n
