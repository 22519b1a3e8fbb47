"""Measurement probes: time series and periodic samplers.

The paper's Figures 12-17 plot CPU/memory utilisation, power draw and
map/reduce progress over time; :class:`TimeSeries` plus
:func:`periodic_sampler` produce exactly those traces from a running
simulation.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, List, Optional, Sequence, Tuple

from .kernel import Simulation


class TimeSeries:
    """An append-only ``(time, value)`` trace with simple analytics."""

    def __init__(self, name: str = "series"):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def __len__(self) -> int:
        return len(self.times)

    def record(self, time: float, value: float) -> None:
        """Append a sample; times must be finite and non-decreasing."""
        if not math.isfinite(time):
            raise ValueError(f"sample time must be finite, got {time}")
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"time went backwards: {time} < {self.times[-1]}")
        self.times.append(time)
        self.values.append(value)

    def at(self, time: float) -> float:
        """Value of the most recent sample at or before ``time``."""
        if not self.times:
            raise ValueError(f"series {self.name!r} is empty")
        index = bisect_right(self.times, time) - 1
        if index < 0:
            raise ValueError(f"no sample at or before t={time}")
        return self.values[index]

    def mean(self) -> float:
        """Unweighted mean of the sampled values."""
        if not self.values:
            raise ValueError(f"series {self.name!r} is empty")
        return sum(self.values) / len(self.values)

    def maximum(self) -> float:
        """Largest sampled value."""
        if not self.values:
            raise ValueError(f"series {self.name!r} is empty")
        return max(self.values)

    def integrate(self) -> float:
        """Trapezoidal integral of value dt over the sampled span.

        This is how measured power (W) becomes energy (J): the meter
        samples cluster power and the integral of those samples over
        time is the joule count the paper reports.
        """
        total = 0.0
        for i in range(1, len(self.times)):
            dt = self.times[i] - self.times[i - 1]
            total += 0.5 * (self.values[i] + self.values[i - 1]) * dt
        return total

    def pairs(self) -> Sequence[Tuple[float, float]]:
        """The trace as a list of ``(time, value)`` tuples."""
        return list(zip(self.times, self.values))

    # -- query helpers (the TSDB in repro.telemetry builds on these) ------

    def _window_start(self, window_s: Optional[float],
                      now: Optional[float]) -> Tuple[int, float]:
        """First sample index inside the trailing window, and its end."""
        if not self.times:
            raise ValueError(f"series {self.name!r} is empty")
        end = self.times[-1] if now is None else now
        if window_s is None:
            return 0, end
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        return bisect_left(self.times, end - window_s), end

    def rate(self, window_s: Optional[float] = None,
             now: Optional[float] = None) -> float:
        """Per-second increase over the trailing window, reset-aware.

        Treats the series as a cumulative counter the way PromQL's
        ``rate()`` does: a decrease is a counter reset and contributes
        the post-reset value.  ``now`` anchors the window end (default:
        the last sample).  Returns 0.0 when fewer than two samples fall
        inside the window; raises on an empty series.
        """
        first, _end = self._window_start(window_s, now)
        times = self.times[first:]
        values = self.values[first:]
        if len(times) < 2:
            return 0.0
        elapsed = times[-1] - times[0]
        if elapsed <= 0:
            return 0.0
        increase = 0.0
        for i in range(1, len(values)):
            delta = values[i] - values[i - 1]
            increase += values[i] if delta < 0 else delta
        return increase / elapsed

    def avg_over_time(self, window_s: Optional[float] = None,
                      now: Optional[float] = None) -> Optional[float]:
        """Unweighted mean of the samples in the trailing window.

        Returns ``None`` when the window holds no samples (a stale
        series queried against a later ``now``); raises on an empty
        series.
        """
        first, _end = self._window_start(window_s, now)
        values = self.values[first:]
        if not values:
            return None
        return sum(values) / len(values)


def periodic_sampler(sim: Simulation, interval: float,
                     probe: Callable[[], float],
                     series: TimeSeries,
                     until: Optional[float] = None,
                     tracer=None, category: str = "sample"):
    """Process generator: sample ``probe()`` into ``series`` every ``interval``.

    Start it with ``sim.process(periodic_sampler(...))``.  Sampling stops
    when the simulation drains or, if given, when ``sim.now`` reaches
    ``until``.  When a :class:`repro.trace.Tracer` is passed, each sample
    is also emitted as a counter event so the series lands on the same
    timeline as the spans of a traced run; behaviour is unchanged when
    ``tracer`` is ``None``.
    """
    if interval <= 0:
        raise ValueError(f"interval must be > 0, got {interval}")
    while until is None or sim.now <= until:
        value = probe()
        series.record(sim.now, value)
        if tracer is not None:
            tracer.counter(series.name, value, category=category)
        yield sim.timeout(interval)
