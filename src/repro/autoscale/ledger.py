"""The autoscale ledger: what elasticity itself cost.

The power meter's joule total is ground truth (a booting node's idle
draw and a draining node's lingering watts are all really sampled);
the ledger, an :class:`~repro.energy.account.OverheadLedger`, charges
the slice of that total spent changing capacity rather than serving
with it, and keeps an action log so tests can assert actuation
ordering (deregister, drain, power off; boot, register).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.records import Record
from ..energy.account import OverheadLedger


@dataclass(frozen=True)
class ScalingAction(Record):
    """One actuation step, timestamped on the simulation clock."""

    time: float
    action: str      # "boot" | "serve" | "drain" | "off"
    node: str


class AutoscaleLedger(OverheadLedger):
    """Boot and drain idle-draw joules, counters and the action log.

    ``boot`` is the idle draw between power-on and entering service,
    ``drain`` the drained-but-on draw between deregistration and
    power-off.
    """

    def __init__(self):
        super().__init__(("boot", "drain"),
                         ("evals", "holds", "boots", "drains",
                          "drain_timeouts"))
        self.actions: List[ScalingAction] = []

    def log(self, time: float, action: str, node: str) -> None:
        self.actions.append(ScalingAction(time, action, node))
