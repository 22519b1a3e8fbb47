"""The mixed Edison/R620 web testbed under autoscaler management.

A :class:`HybridWebDeployment` is the autoscaled analogue of
:class:`repro.web.WebServiceDeployment`: one fresh simulation holding
a :func:`~repro.cluster.hybrid_web_cluster`, per-platform service
costs and connection limits on each web node, a capacity-weighted LB
rotation, and — with ``autoscale=True`` — the full control plane
(pool, actuator, controller, ledger).

With ``autoscale=False`` (the default) nothing control-plane-shaped
is constructed: the deployment is just a static heterogeneous fleet
behind weighted routing, and two runs with the same seed are
bit-identical whether or not this module ever existed.
"""

from __future__ import annotations

from typing import List, Optional

from ..cluster import hybrid_web_cluster
from ..hardware import ServerSpec
from ..sim import RngStreams, Simulation
from ..web import params as P
from ..web.deployment import WebServiceDeployment, run_shaped
from ..web.httperf import HttperfDriver, LevelResult
from ..web.nodes import CacheNode, DatabaseNode, WebServerNode
from ..web.rotation import WeightedRotation
from .actuator import FleetActuator
from .controller import AutoscaleController
from .ledger import AutoscaleLedger
from .policy import TARGET_UTILIZATION
from .pool import ACTIVE, OFF, FleetPool, PoolNode


class HybridWebDeployment:
    """Edisons and R620s in one rotation, optionally autoscaled."""

    def __init__(self, edison_web: int = 6, dell_web: int = 1,
                 cache: int = 3,
                 workload: Optional[P.WebWorkload] = None,
                 seed: int = 20160901,
                 autoscale: bool = False,
                 edison_spec: Optional[ServerSpec] = None,
                 trace=None):
        self.platform = "hybrid"
        self.scale = f"{edison_web}e+{dell_web}d"
        self.workload = workload if workload is not None else P.WebWorkload()
        self.sim = Simulation(trace=trace)
        self.rng = RngStreams(seed)
        kwargs = {}
        if edison_spec is not None:
            kwargs["edison_spec"] = edison_spec
        self.cluster = hybrid_web_cluster(self.sim, edison_web, dell_web,
                                          cache, **kwargs)
        topo = self.cluster.topology
        self.db_nodes: List[DatabaseNode] = [
            DatabaseNode(self.cluster.servers[f"db-{i}"],
                         self.rng.stream(f"db-{i}"))
            for i in range(2)
        ]
        cache_servers = [s for n, s in self.cluster.servers.items()
                         if n.startswith("cache-")]
        self.cache_nodes: List[CacheNode] = [CacheNode(s)
                                             for s in cache_servers]
        web_servers = [s for n, s in self.cluster.servers.items()
                       if n.startswith("web-")]
        self.web_nodes: List[WebServerNode] = [
            WebServerNode(self.sim, s, topo, P.COSTS[s.platform],
                          P.LIMITS[s.platform], self.workload,
                          self.rng.stream(f"web-{i}"),
                          self.cache_nodes, self.db_nodes)
            for i, s in enumerate(web_servers)
        ]
        self.client_names = [f"client-{i}" for i in range(8)]
        self.telemetry = None
        self.last_driver: Optional[HttperfDriver] = None
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
        self._reserve_memory()
        self.meter = self.cluster.attach_meter(interval=0.25)
        # Strictly opt-in, like resilience: False leaves no controller,
        # no ledger, no extra processes, no RNG draws.
        self.autoscale = autoscale
        self.ledger: Optional[AutoscaleLedger] = None
        self.controller: Optional[AutoscaleController] = None
        self.actuator: Optional[FleetActuator] = None
        if self.autoscale:
            self.ledger = AutoscaleLedger()

    def _reserve_memory(self) -> None:
        for node in self.web_nodes:
            frac = P.MEMORY_RESERVATION[(node.server.platform, "web")]
            node.server.memory.reserve(
                frac * node.server.memory.capacity_bytes)
        for node in self.cache_nodes:
            frac = P.MEMORY_RESERVATION[(node.server.platform, "cache")]
            node.server.memory.reserve(
                frac * node.server.memory.capacity_bytes)

    # -- fault plumbing (the same recovery rule as WebServiceDeployment) --

    _on_fault_event = WebServiceDeployment._on_fault_event

    def _ensure_injector(self):
        """The actuator needs ``sim.faults``; attach an empty one."""
        if self.sim.faults is None:
            from ..faults import FaultInjector, FaultPlan
            FaultInjector(self.cluster, FaultPlan.empty())
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

    def run_day(self, shape, duration: float, warmup: float = 0.0,
                calls: int = 5,
                collect_delays: bool = False) -> LevelResult:
        """Drive one shaped day through the weighted rotation.

        When autoscaled, the autoscaler is prepared first (sized to the
        shape's opening rate) unless :meth:`prepare_autoscaler` was
        already called explicitly.  Requires attached telemetry
        when autoscaling — the controller reads the TSDB, nothing else.
        """
        if self.autoscale and self.controller is None:
            self.prepare_autoscaler(shape.rate(0.0), until=duration)
        return run_shaped(self, shape, duration, warmup=warmup,
                          calls=calls, rotation=self.rotation,
                          collect_delays=collect_delays)
