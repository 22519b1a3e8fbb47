"""The DVFS plane: governors actuating P-states on live servers.

One :class:`DvfsPlane` governs the metered servers of a deployment.
Static governors (``performance``, ``powersave``) set their P-state
once at :meth:`start` and spawn no process; ``ondemand`` runs a
simulated-time loop that — like the autoscale controller — reads each
node's CPU utilisation *from the telemetry TSDB*, never from the node
directly, because a real cpufreq daemon only sees sampled counters.

Every transition does four things at one instant:

1. forces a power-meter sample *before* the switch (closing the
   outgoing state's segment) and another *after* it (opening the new
   one), so the sampled power trace carries a true edge and
   :func:`repro.causality.attribute_energy` prices the active P-state
   without smearing the step across a sampling interval;
2. calls :meth:`~repro.hardware.cpu.Cpu.set_pstate`, which re-rates
   in-flight CPU slices exactly like a ``cpu_throttle`` fault — work
   already dispatched finishes at the old speed, the next slice runs
   at the new one;
3. writes a ``cpu_pstate`` series into the TSDB so dashboards can plot
   the governor's decisions next to the signals that caused them;
4. stamps a ``dvfs.pstate`` trace instant
   (:data:`~repro.causality.energy.PSTATE_EVENT`) for the causal
   tooling.

With no :class:`~repro.dvfs.governor.DvfsConfig` (``None``) no plane
exists and runs are bit-identical to a build without this
package.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..causality.energy import PSTATE_EVENT
from .governor import DvfsConfig, make_governor

#: The ondemand loop's tick, and the window its utilisation is
#: averaged over.
SAMPLING_INTERVAL_S = 0.5
METRIC_WINDOW_S = 1.0


class DvfsPlane:
    """Governs the P-states of ``servers`` inside one simulation."""

    def __init__(self, sim, servers, config: DvfsConfig,
                 telemetry=None, meter=None):
        self.sim = sim
        self.servers = list(servers)
        if not self.servers:
            raise ValueError("the DVFS plane needs at least one server")
        self.config = config
        self.governor = make_governor(config)
        if not self.governor.static and telemetry is None:
            raise ValueError("the ondemand governor needs an attached "
                             "Telemetry (it reads the TSDB, not the nodes)")
        self.telemetry = telemetry
        self.meter = meter
        self.counters: Dict[str, int] = {"evals": 0, "transitions": 0}
        #: Per-node ``(t, from_index, to_index)`` transition log.
        self.transitions: Dict[str, List[Tuple[float, int, int]]] = {}
        self._started = False

    def start(self, until: Optional[float] = None) -> None:
        """Apply initial states; spawn the sampling loop if dynamic."""
        if self._started:
            raise RuntimeError("DVFS plane already started")
        self._started = True
        for server in self.servers:
            n = len(server.cpu.spec.pstates)
            self._apply(server, self.governor.initial_index(n))
        if not self.governor.static:
            self.sim.process(self._run(until), name="dvfs-governor")

    def _run(self, until: Optional[float]):
        interval = SAMPLING_INTERVAL_S
        while until is None or self.sim.now + interval <= until:
            yield self.sim.timeout(interval)
            self.evaluate()

    # -- one governor tick ------------------------------------------------

    def evaluate(self) -> None:
        """Decide and actuate every governed node once."""
        self.counters["evals"] += 1
        db = self.telemetry.db
        now = self.sim.now
        for server in self.servers:
            utilization = db.avg_over_time(
                "node_cpu_utilization", window_s=METRIC_WINDOW_S, now=now,
                node=server.name)
            if utilization is None:
                continue        # not scraped yet (or node is down)
            target = self.governor.decide(utilization,
                                          server.cpu.pstate_index,
                                          len(server.cpu.spec.pstates))
            if target is not None:
                self._apply(server, target)

    def _apply(self, server, index: int) -> bool:
        """Switch one server's P-state, with the full actuation above."""
        old = server.cpu.pstate_index
        if index == old:
            return False
        if self.meter is not None:
            self.meter.sample()         # close the outgoing state's segment
        state = server.cpu.set_pstate(index)
        now = self.sim.now
        self.counters["transitions"] += 1
        self.transitions.setdefault(server.name, []).append(
            (now, old, index))
        if self.telemetry is not None:
            self.telemetry.db.record(now, "cpu_pstate", float(index),
                                     node=server.name)
        if self.sim.trace is not None:
            self.sim.trace.instant(PSTATE_EVENT, category="power",
                                   node=server.name, index=index,
                                   state=state.name)
        if self.meter is not None:
            self.meter.sample()         # open the new state's segment
        return True

    # -- accounting -------------------------------------------------------

    def residency_s(self, until: float) -> Dict[str, float]:
        """Seconds spent in each P-state, summed over governed nodes.

        Keys are state names from each server's own table; a node with
        no transitions contributes its whole window to P0 (construction
        default) — :meth:`start` logs the initial switch when a static
        governor parks it elsewhere.
        """
        out: Dict[str, float] = {}
        for server in self.servers:
            states = server.cpu.spec.pstates
            t_prev, idx_prev = 0.0, 0
            for t, _old, new in self.transitions.get(server.name, ()):
                name = states[idx_prev].name
                out[name] = out.get(name, 0.0) + (t - t_prev)
                t_prev, idx_prev = t, new
            name = states[idx_prev].name
            out[name] = out.get(name, 0.0) + max(0.0, until - t_prev)
        return out

def attach_web(deployment, config: Optional[DvfsConfig], *,
               until: Optional[float] = None,
               telemetry=None) -> Optional[DvfsPlane]:
    """Govern a web deployment's metered servers, or do nothing.

    The one integration point callers need: with ``config`` ``None``
    this returns ``None`` without touching the deployment (the
    bit-identity contract); otherwise it builds and starts a plane
    over the metered (web + cache) servers.  ``telemetry`` defaults to
    whatever monitoring plane is already attached to the deployment —
    the ondemand governor requires one.
    """
    if config is None:
        return None
    if telemetry is None:
        telemetry = getattr(deployment, "telemetry", None)
    plane = DvfsPlane(deployment.sim,
                      deployment.cluster.metered_servers, config,
                      telemetry=telemetry, meter=deployment.meter)
    plane.start(until=until)
    return plane

