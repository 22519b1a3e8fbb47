"""Network interface model.

The NIC itself is simple — a line rate and byte counters.  Queueing and
bandwidth *sharing* happen on :class:`repro.net.Link`, which drains each
endpoint's NIC at most at its line rate.  The byte counters feed the
power model and the per-server network-I/O figures (e.g. the 60 MB/s vs
5 MB/s web-server comparison in Section 5.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import Simulation


@dataclass(frozen=True)
class NicSpec:
    """Static description of a network interface."""

    bandwidth_bps: float
    #: True for the Edison's plug-in USB adapter (the ~1 W power anomaly).
    usb_adapter: bool = False

    def __post_init__(self):
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be > 0")

    @property
    def bytes_per_second(self) -> float:
        return self.bandwidth_bps / 8.0


class Nic:
    """Runtime NIC: line rate plus cumulative traffic accounting."""

    def __init__(self, sim: Simulation, spec: NicSpec, name: str = "nic"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.bytes_sent = 0.0
        self.bytes_received = 0.0
        #: Sum of the rates of transfers currently in flight (bytes/s),
        #: maintained by the links this NIC terminates.
        self.active_rate_Bps = 0.0

    @property
    def total_bytes(self) -> float:
        return self.bytes_sent + self.bytes_received

    def utilization(self) -> float:
        """Instantaneous share of line rate claimed by in-flight transfers."""
        return min(1.0, self.active_rate_Bps / self.spec.bytes_per_second)
