"""The controller loop: telemetry in, actuation out.

Every :data:`EVAL_INTERVAL_S` the controller measures the fleet's
offered rate *the way a real control plane must* — from the TSDB, as
the sum of per-node ``rate(web_requests_total)`` over
:data:`METRIC_WINDOW_S`, anchored at the current clock.  Suspended
nodes stopped being scraped the moment they went down, so their stale
series contribute nothing (no ghost capacity, no ghost load).  The
policy turns that into a desired capacity; the pool turns desired
capacity into a wanted node set; the actuator makes reality match.

The controller also writes its own working series back into the TSDB
(``autoscale_offered_rps``, ``autoscale_capacity_rps``,
``autoscale_desired_rps``) so a day's control decisions can be
dashboarded next to the signals that caused them.
"""

from __future__ import annotations

from typing import Optional

from .actuator import FleetActuator
from .ledger import AutoscaleLedger
from .policy import PredictivePolicy
from .pool import ACTIVE, OFF, FleetPool

#: Seconds between control decisions, and the trailing window the
#: offered rate is measured over.
EVAL_INTERVAL_S = 2.0
METRIC_WINDOW_S = 6.0


class AutoscaleController:
    """Closes the loop between the TSDB and the fleet pool."""

    def __init__(self, sim, telemetry, pool: FleetPool,
                 actuator: FleetActuator, ledger: AutoscaleLedger):
        if telemetry is None:
            raise ValueError("the controller needs an attached Telemetry "
                             "(it scrapes the TSDB, not the nodes)")
        self.sim = sim
        self.telemetry = telemetry
        self.pool = pool
        self.actuator = actuator
        self.ledger = ledger
        # Capacity must be *ready* when the load arrives, not ordered
        # then: look one slowest boot plus one tick ahead.
        slowest_boot = max((actuator.boot_seconds(n) for n in pool.nodes),
                           default=0.0)
        self.policy = PredictivePolicy(
            lookahead_s=slowest_boot + EVAL_INTERVAL_S)

    def start(self, until: Optional[float] = None) -> None:
        self.sim.process(self._run(until), name="autoscale-controller")

    def _run(self, until: Optional[float]):
        while until is None or self.sim.now + EVAL_INTERVAL_S <= until:
            yield self.sim.timeout(EVAL_INTERVAL_S)
            self.evaluate()

    # -- one control decision ---------------------------------------------

    def offered_rps(self) -> float:
        """The fleet's measured request rate, straight from the TSDB."""
        db = self.telemetry.db
        now = self.sim.now
        return sum(
            db.rate("web_requests_total", window_s=METRIC_WINDOW_S,
                    now=now, node=node.name)
            for node in self.pool.nodes)

    def evaluate(self) -> None:
        now = self.sim.now
        db = self.telemetry.db
        offered = self.offered_rps()
        capacity = self.pool.committed_capacity_rps()
        self.ledger.count("evals")
        db.record(now, "autoscale_offered_rps", offered)
        db.record(now, "autoscale_capacity_rps", capacity)
        desired = self.policy.decide(now, offered, capacity)
        if desired is None:
            self.ledger.count("holds")
            return
        db.record(now, "autoscale_desired_rps", desired)
        wanted = {node.name for node in self.pool.plan_active_set(desired)}
        if self.sim.trace is not None:
            self.sim.trace.instant("autoscale.decision",
                                   category="autoscale",
                                   offered=round(offered, 3),
                                   desired=round(desired, 3),
                                   wanted=len(wanted))
        for node in self.pool.plan_order:
            if node.name in wanted and node.state == OFF:
                self.actuator.power_on(node)
            elif node.name not in wanted and node.state == ACTIVE:
                self.actuator.power_off(node)
