"""The heterogeneous fleet pool and its capacity planning.

A :class:`FleetPool` tracks every web backend's lifecycle state
(ACTIVE/DRAINING/OFF/BOOTING) and answers the controller's one
question: *given this much demanded capacity, which nodes should be
on?*  The answer is a deterministic greedy cover in energy-efficiency
order — requests-per-second per watt at full tilt, which is exactly
the paper's argument quantified: an Edison delivers ~295 rps on a
~1.7 W envelope (~175 rps/W) while an R620 delivers ~3550 rps on
~110 W (~32 rps/W).  So the pool wakes Edisons first and reaches for
the Dell only when the wimpy tier alone cannot cover demand — and
because the order is a fixed total order, the wanted set is always a
prefix of it: scale-up extends the prefix, scale-down shrinks it, and
no churn swaps same-cost nodes back and forth.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

# Lifecycle states.
ACTIVE = "active"
BOOTING = "booting"
DRAINING = "draining"
OFF = "off"

#: Nodes every plan keeps on: a web service with zero backends is an
#: outage, not a saving.
MIN_ACTIVE = 1


class PoolNode:
    """One web backend under autoscaler management."""

    __slots__ = ("web", "capacity_rps", "state")

    def __init__(self, web, capacity_rps: float):
        if capacity_rps <= 0:
            raise ValueError("capacity_rps must be > 0")
        self.web = web
        self.capacity_rps = capacity_rps
        self.state = ACTIVE

    @property
    def name(self) -> str:
        return self.web.server.name

    @property
    def platform(self) -> str:
        return self.web.server.platform

    @property
    def max_watts(self) -> float:
        return self.web.server.spec.power.max_w

    @property
    def idle_watts(self) -> float:
        return self.web.server.spec.power.min_w

    @property
    def efficiency(self) -> float:
        """Requests per second per watt, saturated — the wake order."""
        return self.capacity_rps / self.max_watts


class FleetPool:
    """Every managed backend, in a fixed efficiency-ordered plan."""

    def __init__(self, nodes: Sequence[PoolNode]):
        if not nodes:
            raise ValueError("the pool needs at least one node")
        self.nodes: List[PoolNode] = list(nodes)
        self.by_name: Dict[str, PoolNode] = {n.name: n for n in self.nodes}
        if len(self.by_name) != len(self.nodes):
            raise ValueError("pool node names must be unique")
        #: The fixed wake order: most efficient first, name-stable ties.
        self.plan_order: List[PoolNode] = sorted(
            self.nodes, key=lambda n: (-n.efficiency, n.name))

    # -- capacity views ---------------------------------------------------

    def committed_capacity_rps(self) -> float:
        """Capacity serving now or already paid for (ACTIVE + BOOTING).

        Counting BOOTING stops the controller from re-ordering capacity
        it has already ordered, every evaluation until the boot lands.
        """
        return sum(n.capacity_rps for n in self.nodes
                   if n.state in (ACTIVE, BOOTING))

    def total_capacity_rps(self) -> float:
        return sum(n.capacity_rps for n in self.nodes)

    # -- planning ---------------------------------------------------------

    def plan_active_set(self, desired_rps: float) -> List[PoolNode]:
        """The greedy prefix of the wake order covering ``desired_rps``.

        At least :data:`MIN_ACTIVE` nodes are always kept; beyond that,
        nodes accumulate until their summed capacity covers the
        demand.  Deterministic: same demand, same pool, same answer.
        """
        wanted: List[PoolNode] = []
        covered = 0.0
        for node in self.plan_order:
            if len(wanted) < MIN_ACTIVE or covered < desired_rps:
                wanted.append(node)
                covered += node.capacity_rps
            else:
                break
        return wanted
