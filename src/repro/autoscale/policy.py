"""The scaling policy: a pure decision function, no simulation inside.

A policy sees three numbers each evaluation — the clock, the measured
offered rate and the fleet's committed capacity — and answers with a
desired aggregate capacity in requests/s, or ``None`` to hold.  All
the control-theory hygiene lives here so it can be unit-tested without
a simulation:

* **hysteresis** — act only outside the ``LOW..HIGH`` utilisation
  band; inside it, hold, so capacity quantisation (a whole Edison at a
  time) cannot oscillate around the target;
* **cooldown** — consecutive *scale-downs* must be ``COOLDOWN_S``
  apart, and any action (up or down) re-arms the gate, so the fleet
  never sheds a node it grew seconds ago.  Scale-*up* is never gated:
  delaying growth is how SLOs die;
* **prediction** — the policy regresses the offered rate over a
  trailing window and extrapolates ``lookahead_s`` ahead (the
  controller passes one boot-time plus one tick), buying capacity
  *before* a ramp needs it instead of after utilisation crosses the
  line.  With no lookahead the rule is purely reactive.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

#: The utilisation of committed capacity the policy provisions for...
TARGET_UTILIZATION = 0.60
#: ...and the hysteresis band around it inside which it holds.
HIGH_UTILIZATION = 0.80
LOW_UTILIZATION = 0.40
#: Minimum seconds from any action to the next scale-down.
COOLDOWN_S = 12.0
#: Trailing window of the offered-rate regression, in seconds.
HISTORY_S = 30.0


class PredictivePolicy:
    """Threshold scaling with hysteresis on a lookahead-extrapolated
    demand signal."""

    def __init__(self, lookahead_s: float = 0.0):
        self.lookahead_s = lookahead_s
        self.last_action_at = -math.inf
        self.history: List[Tuple[float, float]] = []

    def demand_rps(self, now: float, offered_rps: float) -> float:
        """The rate this policy provisions for."""
        self.history.append((now, offered_rps))
        cutoff = now - HISTORY_S
        while self.history and self.history[0][0] < cutoff:
            self.history.pop(0)
        predicted = offered_rps + self._slope() * self.lookahead_s
        # Prediction only ever *adds* demand: scaling down on a
        # forecasted decline risks shedding capacity a mis-fit trend
        # line invented, so declines wait for the measured rate.
        return max(offered_rps, max(0.0, predicted))

    def _slope(self) -> float:
        """Least-squares slope (req/s per s) of the trailing history."""
        n = len(self.history)
        if n < 2:
            return 0.0
        mean_t = sum(t for t, _ in self.history) / n
        mean_v = sum(v for _, v in self.history) / n
        denom = sum((t - mean_t) ** 2 for t, _ in self.history)
        if denom <= 0:
            return 0.0
        numer = sum((t - mean_t) * (v - mean_v) for t, v in self.history)
        return numer / denom

    def decide(self, now: float, offered_rps: float,
               capacity_rps: float) -> Optional[float]:
        """Desired aggregate capacity in req/s, or None to hold."""
        demand = self.demand_rps(now, offered_rps)
        desired = demand / TARGET_UTILIZATION
        if capacity_rps <= 0:
            # No committed capacity at all: bring the fleet up now.
            self.last_action_at = now
            return desired
        utilization = demand / capacity_rps
        if utilization > HIGH_UTILIZATION:
            self.last_action_at = now
            return desired
        if utilization < LOW_UTILIZATION:
            if now - self.last_action_at < COOLDOWN_S:
                return None
            self.last_action_at = now
            return desired
        return None
