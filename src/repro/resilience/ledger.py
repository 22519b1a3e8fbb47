"""The resilience ledger: what every mitigation cost in joules.

Mitigations buy availability with duplicated or discarded work — a
killed speculative attempt, the losing leg of a hedged request, the
cheap error reply sent to a shed call.  None of that work reaches the
throughput numerator, but all of it reaches the energy meter, so the
paper's work-done-per-joule metric silently pays for it.  The ledger
makes that price explicit: every mechanism charges its waste here, by
category and by node, and the tax report reads it back out.

Waste is priced at the *marginal* vcore rate — the slope of the linear
power model, ``(max_w - min_w) / vcores`` — because the node's idle
floor is burned whether or not the duplicate work runs.  That matches
how :mod:`repro.energy` already attributes incremental load.
"""

from __future__ import annotations

from typing import Dict

from ..energy.account import OverheadJoules

#: Ledger charge categories.
CATEGORIES = ("speculation", "hedge", "shed", "retry")


class ResilienceLedger:
    """Counters and joule charges accumulated by every mitigation."""

    def __init__(self):
        self.counters: Dict[str, int] = {
            "speculative_launches": 0,
            "speculative_wins": 0,
            "speculative_kills": 0,
            "speculative_abandoned": 0,
            "hedges": 0,
            "hedge_wins": 0,
            "sheds": 0,
            "retries": 0,
            "breaker_opens": 0,
        }
        self.waste_joules: Dict[str, float] = {c: 0.0 for c in CATEGORIES}
        self.waste_seconds: Dict[str, float] = {c: 0.0 for c in CATEGORIES}
        self.node_joules: Dict[str, float] = {}

    def count(self, counter: str, n: int = 1) -> None:
        self.counters[counter] += n

    def charge(self, category: str, node: str, seconds: float,
               watts: float) -> None:
        """Attribute ``seconds`` of wasted work on ``node`` at ``watts``."""
        if category not in self.waste_joules:
            raise ValueError(f"unknown ledger category {category!r}")
        if seconds < 0 or watts < 0:
            raise ValueError("seconds and watts must be >= 0")
        joules = seconds * watts
        self.waste_joules[category] += joules
        self.waste_seconds[category] += seconds
        self.node_joules[node] = self.node_joules.get(node, 0.0) + joules

    @staticmethod
    def marginal_vcore_watts(server) -> float:
        """See :meth:`repro.hardware.Server.marginal_vcore_watts`."""
        return server.marginal_vcore_watts()

    @property
    def total_waste_joules(self) -> float:
        return sum(self.waste_joules.values())

    def to_mitigation_costs(self) -> OverheadJoules:
        return OverheadJoules(self.waste_joules)
