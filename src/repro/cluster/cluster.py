"""A cluster: servers wired into a topology with a power meter attached."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..energy import PowerMeter
from ..hardware import Server, ServerSpec, make_server
from ..net import Topology
from ..sim import Simulation


class Cluster:
    """A named group of servers sharing a simulation and a topology.

    A cluster may span both platforms (the paper's Hadoop deployment has
    a Dell master and Edison slaves); the power meter covers an explicit
    *metered* subset so the master can be excluded from energy accounting
    the way Section 5.2 excludes it.
    """

    def __init__(self, sim: Simulation, name: str = "cluster"):
        self.sim = sim
        self.name = name
        self.topology = Topology(sim)
        self.servers: Dict[str, Server] = {}
        self.metered_names: List[str] = []
        self._meter: Optional[PowerMeter] = None

    def add(self, spec: ServerSpec, name: str, metered: bool = True,
            rack: Optional[str] = None) -> Server:
        """Create one server from ``spec`` and wire it into the topology."""
        if name in self.servers:
            raise ValueError(f"duplicate server name {name!r}")
        server = make_server(self.sim, spec, name)
        self.servers[name] = server
        self.topology.add_server(server, rack=rack)
        if metered:
            self.metered_names.append(name)
        return server

    def add_many(self, spec: ServerSpec, count: int,
                 prefix: str) -> List[Server]:
        """Create ``count`` identical metered servers named
        ``prefix``-``i``."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return [self.add(spec, f"{prefix}-{i}") for i in range(count)]

    def __len__(self) -> int:
        return len(self.servers)

    def __iter__(self):
        return iter(self.servers.values())

    @property
    def metered_servers(self) -> List[Server]:
        return [self.servers[name] for name in self.metered_names]

    # -- metering ---------------------------------------------------------

    def attach_meter(self, interval: float = 1.0) -> PowerMeter:
        """Create (once) the power meter over the metered subset."""
        if self._meter is not None:
            raise RuntimeError("meter already attached")
        self._meter = PowerMeter(self.sim, self.metered_servers,
                                 interval=interval, name=f"{self.name}.meter")
        return self._meter

    @property
    def meter(self) -> PowerMeter:
        if self._meter is None:
            raise RuntimeError("attach_meter() has not been called")
        return self._meter

    def idle_watts(self) -> float:
        """Wall power with every metered server idle."""
        return sum(s.spec.power.min_w for s in self.metered_servers)
