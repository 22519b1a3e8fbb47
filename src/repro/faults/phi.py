"""Phi-accrual failure detection (Hayashibara et al., SRDS 2004).

YARN's stock liveness rule is a fixed expiry: miss N heartbeats and you
are dead.  On a fleet of micro servers whose heartbeat jitter is wide
(the seeded ``heartbeat_jitter`` window spans 0.3-1.0x the base period)
a fixed window is either trigger-happy or sluggish.  The phi-accrual
detector instead keeps a sliding window of observed inter-arrival times
per node and reports a *suspicion level*::

    phi(t) = -log10( P(a beat arrives later than t) )

under a normal fit of the window.  ``phi >= THRESHOLD`` (8 — a
one-in-10^8 chance the node is merely slow) is the adaptive
equivalent of "expired": nodes with steady heartbeats are convicted
quickly, jittery ones get proportionally more grace.

The detector is passive and allocation-free on the hot path: feeding it
a beat updates two running sums; suspicion is only evaluated when a
liveness decision is pending.  It draws no RNG and spawns no processes
itself — the durability plane owns the seeded feeder processes, so an
un-armed detector leaves runs bit-identical.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, Optional

#: Suspicion is capped here: erfc underflows around phi ~ 300 anyway
#: and no policy distinguishes "certainly dead" from "certainly dead".
PHI_CAP = 100.0
#: Suspicion at which a node is convicted.
THRESHOLD = 8.0
#: Inter-arrival times kept per node.
WINDOW = 64
#: Floor on the fitted standard deviation (seconds), so a metronomic
#: node is not convicted by one late beat.
MIN_STD_S = 0.05
#: Prior mean inter-arrival (seconds), used until a node has history.
EXPECTED_S = 1.0

_SQRT2 = math.sqrt(2.0)


class PhiAccrualDetector:
    """Per-node adaptive liveness from observed heartbeat arrivals."""

    def __init__(self, sim):
        self.sim = sim
        self._arrivals: Dict[str, Deque[float]] = {}
        self._sum: Dict[str, float] = {}
        self._sumsq: Dict[str, float] = {}
        self._last: Dict[str, float] = {}
        self.beats = 0

    # -- feeding ---------------------------------------------------------

    def beat(self, node: str) -> None:
        """Record one heartbeat arrival from ``node``, now."""
        now = self.sim.now
        last = self._last.get(node)
        self._last[node] = now
        self.beats += 1
        if last is None:
            return
        interval = now - last
        arrivals = self._arrivals.get(node)
        if arrivals is None:
            arrivals = self._arrivals[node] = deque(maxlen=WINDOW)
            self._sum[node] = 0.0
            self._sumsq[node] = 0.0
        if len(arrivals) == arrivals.maxlen:
            old = arrivals[0]
            self._sum[node] -= old
            self._sumsq[node] -= old * old
        arrivals.append(interval)
        self._sum[node] += interval
        self._sumsq[node] += interval * interval

    # -- statistics ------------------------------------------------------

    def _fit(self, node: str):
        """(mean, std) of the node's inter-arrival window."""
        arrivals = self._arrivals.get(node)
        if not arrivals or len(arrivals) < 2:
            return EXPECTED_S, max(MIN_STD_S, EXPECTED_S / 4.0)
        n = len(arrivals)
        mean = self._sum[node] / n
        var = max(0.0, self._sumsq[node] / n - mean * mean)
        return mean, max(math.sqrt(var), MIN_STD_S)

    def phi(self, node: str, now: Optional[float] = None) -> float:
        """Current suspicion level for ``node`` (0 = just heard from)."""
        now = self.sim.now if now is None else now
        last = self._last.get(node)
        if last is None:
            return 0.0
        silent = now - last
        if silent <= 0:
            return 0.0
        mean, std = self._fit(node)
        p_later = 0.5 * math.erfc((silent - mean) / (std * _SQRT2))
        if p_later <= 1e-300:
            return PHI_CAP
        return min(PHI_CAP, -math.log10(p_later))

    def silence_for_suspicion(self, node: str) -> float:
        """Seconds of silence after the last beat at which ``phi``
        crosses the threshold — phi is monotone in silence, so a short
        bisection pins the crossing to a microsecond."""
        mean, std = self._fit(node)
        lo, hi = mean, mean + 40.0 * std
        target = THRESHOLD

        def phi_at(silent: float) -> float:
            p = 0.5 * math.erfc((silent - mean) / (std * _SQRT2))
            return PHI_CAP if p <= 1e-300 else min(PHI_CAP,
                                                   -math.log10(p))

        if phi_at(hi) < target:  # pragma: no cover - cap is generous
            return hi
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if phi_at(mid) >= target:
                hi = mid
            else:
                lo = mid
            if hi - lo < 1e-6:
                break
        return hi

    # -- liveness decisions ----------------------------------------------

    def wait_suspect(self, node: str,
                     healthy: Optional[Callable[[], bool]] = None):
        """Process generator: resolve ``True`` when suspicion crosses
        the threshold, ``False`` if ``healthy()`` turns true first (the
        node's beats resumed before conviction — a healed partition)."""
        while True:
            now = self.sim.now
            if self.phi(node, now) >= THRESHOLD:
                return True
            if healthy is not None and healthy():
                return False
            last = self._last.get(node, now)
            target = last + self.silence_for_suspicion(node)
            yield max(target - now, 1e-3)
