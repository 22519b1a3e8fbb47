"""Power metering: the simulated stand-ins for the paper's instruments.

The paper measured the Edison cluster with a Mastech HY1803D bench DC
supply and the Dell cluster with a rack PDU polled over SNMP.  Both are
the same abstraction here: a :class:`PowerMeter` that samples the summed
wall power of a set of servers at a fixed interval into a
:class:`~repro.sim.TimeSeries`, from which energy is obtained by
trapezoidal integration — exactly how one integrates a logged power
trace from a real meter.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..hardware.power import COMPONENTS
from ..hardware.server import Server
from ..sim import Simulation, TimeSeries


class PowerMeter:
    """Samples total wall power of ``servers`` every ``interval`` seconds."""

    def __init__(self, sim: Simulation, servers: Iterable[Server],
                 interval: float = 1.0, name: str = "meter"):
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.sim = sim
        self.servers: List[Server] = list(servers)
        if not self.servers:
            raise ValueError("a meter needs at least one server")
        self.interval = interval
        self.name = name
        self.series = TimeSeries(f"{name}.power_w")
        self.per_component: Dict[str, TimeSeries] = {
            key: TimeSeries(f"{name}.{key}") for key in COMPONENTS
        }
        #: Per-server power traces, recorded at the same sample instants
        #: as the summed series — the ground truth per-node energy that
        #: :mod:`repro.causality` attributes across resident spans.
        self.per_node: Dict[str, TimeSeries] = {
            server.name: TimeSeries(f"{name}.{server.name}.power_w")
            for server in self.servers
        }
        # The blend must know every component a window carries; checked
        # here once, not at every sample.
        for server in self.servers:
            weights = server.spec.power.weights
            for component in COMPONENTS:
                if component not in weights:
                    raise ValueError(
                        f"{server.name}: the meter reads power component "
                        f"{component!r}; the weight blend knows "
                        f"{sorted(weights)}")
        self._nodes = [(server, server.spec.power,
                        self.per_node[server.name].record)
                       for server in self.servers]
        self._process = None

    def start(self, until: Optional[float] = None) -> None:
        """Begin sampling (call once, before or during the run)."""
        if self._process is not None:
            raise RuntimeError("meter already started")
        self._process = self.sim.process(self._run(until), name=self.name)

    def _run(self, until: Optional[float]):
        while until is None or self.sim.now <= until:
            self.sample()
            yield self.sim.timeout(self.interval)

    def sample(self) -> float:
        """Take one reading now; returns the summed watts."""
        cpu = mem = disk = net = 0.0
        watts = 0.0
        faults = self.sim.faults
        now = self.sim.now
        trace = self.sim.trace
        for server, power, record in self._nodes:
            window = server.utilization_window()
            if faults is not None:
                # Crashed nodes draw idle power, powered-off ones nothing
                # (identical to the plain formula while the node is up).
                node_w = faults.node_watts(server, window)
            else:
                node_w = power.window_power(window, server.cpu.pstate)
            watts += node_w
            record(now, node_w)
            if trace is not None:
                trace.counter(f"{self.name}.node_power_w", node_w,
                              category="power", node=server.name)
            cpu += window[0]
            mem += window[1]
            disk += window[2]
            net += window[3]
        self.series.record(now, watts)
        n = len(self.servers)
        means = (cpu / n, mem / n, disk / n, net / n)
        for series, mean in zip(self.per_component.values(), means):
            series.record(now, mean)
        if trace is not None:
            trace.counter(self.series.name, watts, category="power")
            for key, mean in zip(self.per_component, means):
                trace.counter(f"{self.name}.{key}", mean, category="power")
        return watts

    def energy_joules(self) -> float:
        """Energy recorded so far (trapezoidal integral of the trace)."""
        return self.series.integrate()

    def node_energy_joules(self, name: str) -> float:
        """Energy recorded so far for one server (trapezoidal integral)."""
        return self.per_node[name].integrate()

    def mean_power(self) -> float:
        """Average of the power samples taken so far."""
        return self.series.mean()
