"""A server: CPU + memory + storage + NIC + power model, with probes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..sim import Simulation
from .cpu import Cpu, CpuSpec
from .memory import Memory, MemorySpec
from .nic import Nic, NicSpec
from .power import PowerSpec
from .storage import Storage, StorageSpec


@dataclass(frozen=True)
class ServerSpec:
    """Full static description of a server model."""

    platform: str                  # "edison" or "dell" (used for RTT tables)
    cpu: CpuSpec
    memory: MemorySpec
    storage: StorageSpec
    nic: NicSpec
    power: PowerSpec
    node_cost_usd: float = 0.0


class Server:
    """Runtime server instance living inside one simulation."""

    def __init__(self, sim: Simulation, spec: ServerSpec, name: str):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.cpu = Cpu(sim, spec.cpu, name=f"{name}.cpu")
        self.memory = Memory(sim, spec.memory, name=f"{name}.mem")
        self.storage = Storage(sim, spec.storage, name=f"{name}.disk")
        self.nic = Nic(sim, spec.nic, name=f"{name}.nic")
        self._probe_time = sim.now
        self._probe_cpu_busy = 0.0
        self._probe_disk_busy = 0.0
        self._probe_nic_bytes = 0.0

    @property
    def platform(self) -> str:
        return self.spec.platform

    # -- utilisation probing -------------------------------------------

    def utilization_now(self) -> Dict[str, float]:
        """Instantaneous per-component utilisation, as a pure read.

        Unlike :meth:`utilization_window` this does **not** advance the
        probe window, so any number of observers (telemetry scrapers,
        debuggers) may call it without perturbing the power meter's
        windowed averages — attaching monitoring must never change the
        energy numbers it is monitoring.
        """
        return {
            "cpu": self.cpu.utilization(),
            "mem": self.memory.utilization(),
            "disk": self.storage.utilization(),
            "net": self.nic.utilization(),
        }

    def utilization_window(self) -> Tuple[float, float, float, float]:
        """Mean ``(cpu, mem, disk, net)`` utilisation since the previous call.

        Each value is in [0, 1], in :data:`~repro.hardware.power.COMPONENTS`
        order, the form :meth:`PowerSpec.window_power` blends.  The
        power meter calls this once per sampling interval; windowed
        averages avoid aliasing that instantaneous probes would suffer
        at coarse sampling rates.
        """
        now = self.sim.now
        dt = now - self._probe_time
        cpu_busy = self.cpu.busy_vcore_seconds()
        disk_busy = self.storage.channel.busy_time()
        nic_bytes = self.nic.total_bytes
        if dt <= 0:
            window = tuple(self.utilization_now().values())
        else:
            nic_rate = (nic_bytes - self._probe_nic_bytes) / dt
            window = ((cpu_busy - self._probe_cpu_busy)
                      / (self.cpu.vcores.capacity * dt),
                      self.memory.utilization(),
                      (disk_busy - self._probe_disk_busy) / dt,
                      min(1.0, nic_rate / self.nic.spec.bytes_per_second))
        self._probe_time = now
        self._probe_cpu_busy = cpu_busy
        self._probe_disk_busy = disk_busy
        self._probe_nic_bytes = nic_bytes
        return window

    def marginal_vcore_watts(self) -> float:
        """Marginal power of one busy vcore under the linear power model.

        Priced at the CPU's active P-state: wasted seconds on a
        down-clocked core cost fewer joules per second (they also last
        longer — the caller bills the stretched duration).
        """
        power = self.spec.power
        watts = (power.max_w - power.min_w) / self.cpu.spec.vcores
        factor = self.cpu.pstate.busy_w_factor
        if factor != 1.0:
            watts *= factor
        return watts

    def marginal_io_watts(self) -> float:
        """Marginal power of pegged disk + NIC under the linear model.

        The component weights say how much of the idle-to-busy power
        swing storage and wire activity can claim; a repair stream
        drives both on whichever end it touches.
        """
        power = self.spec.power
        weights = power.weights
        return ((power.busy_w - power.idle_w)
                * (weights["disk"] + weights["net"]))
