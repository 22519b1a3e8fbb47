"""The mixed Edison/R620 web testbed under autoscaler management.

A :class:`HybridWebDeployment` is a
:class:`repro.web.WebServiceDeployment` over a
:func:`~repro.cluster.hybrid_web_cluster` (each node wired from its
own platform's service costs, connection limits and memory footprint)
plus a capacity-weighted LB rotation and — with ``autoscale=True`` —
the full control plane (pool, actuator, controller, ledger).

With ``autoscale=False`` (the default) nothing control-plane-shaped
is constructed: the deployment is just a static heterogeneous fleet
behind weighted routing, and two runs with the same seed are
bit-identical whether or not this module ever existed.
"""

from __future__ import annotations

from typing import Optional

from ..cluster import hybrid_web_cluster
from ..web import params as P
from ..web.deployment import WebServiceDeployment
from ..web.httperf import LevelResult
from ..web.rotation import WeightedRotation
from .actuator import FleetActuator
from .controller import AutoscaleController
from .ledger import AutoscaleLedger
from .policy import TARGET_UTILIZATION
from .pool import ACTIVE, OFF, FleetPool, PoolNode


class HybridWebDeployment(WebServiceDeployment):
    """Edisons and R620s in one rotation, optionally autoscaled."""

    def __init__(self, edison_web: int = 6, dell_web: int = 1,
                 cache: int = 3, seed: int = 20160901,
                 autoscale: bool = False, trace=None):
        self._fleet = (edison_web, dell_web, cache)
        super().__init__("hybrid", f"{edison_web}e+{dell_web}d",
                         seed=seed, trace=trace)
        # The weighted rotation: every backend registered at its
        # platform's tuned capacity, so the Dell takes ~12x an
        # Edison's share instead of an equal one.
        self.rotation = WeightedRotation(self.sim)
        for web in self.web_nodes:
            self.rotation.add(web,
                              P.PER_SERVER_CAPACITY_RPS[web.server.platform])
        self.pool = FleetPool([
            PoolNode(web, P.PER_SERVER_CAPACITY_RPS[web.server.platform])
            for web in self.web_nodes])
        # Strictly opt-in, like resilience: False leaves no controller,
        # no ledger, no extra processes, no RNG draws.
        self.autoscale = autoscale
        self.ledger: Optional[AutoscaleLedger] = None
        self.controller: Optional[AutoscaleController] = None
        self.actuator: Optional[FleetActuator] = None
        if self.autoscale:
            self.ledger = AutoscaleLedger()

    def _build_cluster(self):
        return hybrid_web_cluster(self.sim, *self._fleet)

    # -- fault plumbing ----------------------------------------------------

    def _ensure_injector(self):
        """The actuator needs ``sim.faults``; attach an empty one."""
        if self.sim.faults is None:
            from ..faults import FaultInjector, FaultPlan
            FaultInjector(self.cluster, FaultPlan())
        self.sim.faults.add_listener(self._on_fault_event)
        return self.sim.faults

    # -- capacity ---------------------------------------------------------

    def target_rps(self) -> float:
        """Peak offered rate the full fleet is tuned for."""
        factor = P.workload_factor(self.workload.image_fraction,
                                   self.workload.cache_hit_ratio)
        return self.pool.total_capacity_rps() * factor

    # -- running one day --------------------------------------------------

    def prepare_autoscaler(self, initial_rps: float,
                           until: Optional[float] = None
                           ) -> AutoscaleController:
        """Size the fleet for ``initial_rps`` and start the controller.

        Nodes outside the initial plan are suspended *before* the run
        begins — the day starts with the fleet the policy would have
        chosen had it been watching all along, not with everything on.
        """
        if not self.autoscale:
            raise RuntimeError("this deployment is not autoscaled")
        if self.controller is not None:
            raise RuntimeError("the autoscaler is already prepared")
        injector = self._ensure_injector()
        self.actuator = FleetActuator(self.sim, injector, self.rotation,
                                      self.ledger)
        wanted = {node.name for node in self.pool.plan_active_set(
            initial_rps / TARGET_UTILIZATION)}
        for node in self.pool.nodes:
            if node.name not in wanted:
                node.state = OFF
                self.rotation.set_in_rotation(node.name, False)
                injector.admin_power_off(node.name)
            else:
                node.state = ACTIVE
        self.controller = AutoscaleController(
            self.sim, self.telemetry, self.pool, self.actuator, self.ledger)
        self.controller.start(until=until)
        return self.controller

    def run_day(self, shape, duration: float, calls: int = 5,
                collect_delays: bool = False) -> LevelResult:
        """Drive one shaped day through the weighted rotation.

        When autoscaled, the autoscaler is prepared first (sized to the
        shape's opening rate) unless :meth:`prepare_autoscaler` was
        already called explicitly.  Requires attached telemetry
        when autoscaling — the controller reads the TSDB, nothing else.
        """
        if self.autoscale and self.controller is None:
            self.prepare_autoscaler(shape.rate(0.0), until=duration)
        return self.run_shaped(shape, duration, calls=calls,
                               rotation=self.rotation,
                               collect_delays=collect_delays)
