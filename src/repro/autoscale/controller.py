"""The controller loop: telemetry in, actuation out.

Every ``eval_interval_s`` the controller measures the fleet's offered
rate *the way a real control plane must* — from the TSDB, as the sum
of per-node ``rate(web_requests_total)`` over the metric window,
anchored at the current clock.  Suspended nodes stopped being scraped
the moment they went down, so their stale series contribute nothing
(no ghost capacity, no ghost load).  The policy turns that into a
desired capacity; the pool turns desired capacity into a wanted node
set; the actuator makes reality match.

The controller also writes its own working series back into the TSDB
(``autoscale_offered_rps``, ``autoscale_capacity_rps``,
``autoscale_desired_rps``) so a day's control decisions can be
dashboarded next to the signals that caused them.
"""

from __future__ import annotations

from typing import Optional

from .actuator import FleetActuator
from .config import AutoscaleConfig
from .ledger import AutoscaleLedger
from .policy import make_policy
from .pool import ACTIVE, OFF, FleetPool


class AutoscaleController:
    """Closes the loop between the TSDB and the fleet pool."""

    def __init__(self, sim, telemetry, pool: FleetPool,
                 actuator: FleetActuator, config: AutoscaleConfig,
                 ledger: AutoscaleLedger):
        if telemetry is None:
            raise ValueError("the controller needs an attached Telemetry "
                             "(it scrapes the TSDB, not the nodes)")
        self.sim = sim
        self.telemetry = telemetry
        self.pool = pool
        self.actuator = actuator
        self.config = config
        self.ledger = ledger
        slowest_boot = max((actuator.boot_seconds(n) for n in pool.nodes),
                           default=0.0)
        self.policy = make_policy(
            config.policy,
            default_lookahead_s=slowest_boot + config.policy.eval_interval_s)

    def start(self, until: Optional[float] = None) -> None:
        self.sim.process(self._run(until), name="autoscale-controller")

    def _run(self, until: Optional[float]):
        interval = self.config.policy.eval_interval_s
        while until is None or self.sim.now + interval <= until:
            yield self.sim.timeout(interval)
            self.evaluate()

    # -- one control decision ---------------------------------------------

    def offered_rps(self) -> float:
        """The fleet's measured request rate, straight from the TSDB."""
        db = self.telemetry.db
        window = self.config.policy.metric_window_s
        now = self.sim.now
        return sum(
            db.rate("web_requests_total", window_s=window, now=now,
                    node=node.name)
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
        wanted = {node.name for node in self.pool.plan_active_set(
            desired, self.config.actuation.min_active)}
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
