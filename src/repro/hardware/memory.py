"""Memory model: capacity occupancy plus a saturating bandwidth curve.

Two independent aspects are modelled:

* **Occupancy** — megabytes reserved by OS, daemons and tasks, backed by
  a :class:`~repro.sim.Container`; the memory-utilisation curves of
  Figures 12-17 sample this.
* **Bandwidth** — Section 4.2 measures transfer rate versus block size
  and thread count.  Rate grows with block size (per-operation overhead
  amortises away, saturating around 256 KiB) and with threads up to a
  platform-specific saturation point (2 threads on Edison, 12 on the
  Dell), matching the paper's sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import Container, Simulation


@dataclass(frozen=True)
class MemorySpec:
    """Static description of a memory subsystem.

    ``half_rate_block`` is the block size at which per-op overhead halves
    the streaming rate; 16 KiB reproduces "saturates from 256 KiB".
    """

    capacity_bytes: float
    peak_bandwidth_bps: float
    saturation_threads: int
    half_rate_block: float = 16 * 1024

    def __post_init__(self):
        if min(self.capacity_bytes, self.peak_bandwidth_bps) <= 0:
            raise ValueError("capacity and bandwidth must be > 0")
        if self.saturation_threads < 1:
            raise ValueError("saturation_threads must be >= 1")

    def bandwidth(self, block_bytes: float, threads: int) -> float:
        """Achievable aggregate rate for a given block size / thread count."""
        if block_bytes <= 0:
            raise ValueError("block size must be > 0")
        if threads < 1:
            raise ValueError("threads must be >= 1")
        block_factor = block_bytes / (block_bytes + self.half_rate_block)
        thread_factor = min(threads, self.saturation_threads) / self.saturation_threads
        return self.peak_bandwidth_bps * block_factor * thread_factor


class Memory:
    """Runtime memory: a byte-denominated occupancy container."""

    def __init__(self, sim: Simulation, spec: MemorySpec, name: str = "mem"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self._occupied = Container(
            sim, capacity=spec.capacity_bytes, name=f"{name}.occupied")

    @property
    def capacity_bytes(self) -> float:
        return self.spec.capacity_bytes

    def reserve(self, nbytes: float):
        """Event firing once ``nbytes`` could be claimed."""
        return self._occupied.put(nbytes)

    def free(self, nbytes: float):
        """Event firing once ``nbytes`` were returned."""
        return self._occupied.get(nbytes)

    def utilization(self) -> float:
        """Fraction of capacity currently occupied."""
        return self._occupied.level / self.spec.capacity_bytes
