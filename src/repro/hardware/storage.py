"""Storage model reproducing the paper's Table 5 dd/ioping measurements.

The model distinguishes *direct* I/O (every block committed to the
medium, i.e. ``dd oflag=dsync``) from *buffered* I/O through the OS page
cache, because the paper measures both and MapReduce spills exercise
the buffered path while HDFS block writes are closer to direct.

A single request queue (one head / one SD controller) serialises
concurrent operations, which is what limits Hadoop on both platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import Request, Resource, Simulation


@dataclass(frozen=True)
class StorageSpec:
    """Static description of a disk / SD card (rates in bytes/s)."""

    write_bps: float
    buffered_write_bps: float
    read_bps: float
    buffered_read_bps: float
    write_latency_s: float
    read_latency_s: float

    def __post_init__(self):
        rates = (self.write_bps, self.buffered_write_bps,
                 self.read_bps, self.buffered_read_bps)
        if min(rates) <= 0:
            raise ValueError("all rates must be > 0")
        if min(self.write_latency_s, self.read_latency_s) < 0:
            raise ValueError("latencies must be >= 0")

    def rate(self, op: str, buffered: bool) -> float:
        """Sustained rate for ``op`` in {'read','write'}."""
        if op == "read":
            return self.buffered_read_bps if buffered else self.read_bps
        if op == "write":
            return self.buffered_write_bps if buffered else self.write_bps
        raise ValueError(f"unknown op {op!r}")

    def latency(self, op: str) -> float:
        """Per-request access latency for ``op``."""
        if op == "read":
            return self.read_latency_s
        if op == "write":
            return self.write_latency_s
        raise ValueError(f"unknown op {op!r}")


class Storage:
    """Runtime storage device with a serialised request queue."""

    def __init__(self, sim: Simulation, spec: StorageSpec, name: str = "disk"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.channel = Resource(sim, capacity=1, name=f"{name}.channel")
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        # (op, buffered) -> rate and op -> latency, flattened so the
        # per-request path skips io_time()'s string dispatch.
        self._rates = {("read", False): spec.read_bps,
                       ("read", True): spec.buffered_read_bps,
                       ("write", False): spec.write_bps,
                       ("write", True): spec.buffered_write_bps}
        self._latencies = {"read": spec.read_latency_s,
                           "write": spec.write_latency_s}

    def io_time(self, op: str, nbytes: float) -> float:
        """Seconds of device time for one unbuffered request (latency +
        transfer)."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self.spec.latency(op) + nbytes / self.spec.rate(op, False)

    def _io(self, op: str, nbytes: float, buffered: bool):
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        # try/finally instead of the context manager, and table lookups
        # instead of io_time()'s string dispatch: _io runs once per
        # simulated disk request, which MapReduce issues by the
        # thousand (spills, merges, HDFS block reads).
        channel = self.channel
        grant = Request(channel, in_place=True)
        try:
            if grant.callbacks is not None:
                yield grant
            yield (self._latencies[op]
                   + nbytes / self._rates[op, buffered])
        finally:
            channel.release(grant)
        if op == "read":
            self.bytes_read += nbytes
        else:
            self.bytes_written += nbytes

    def read(self, nbytes: float, buffered: bool = False):
        """Process generator performing a read of ``nbytes``."""
        return self._io("read", nbytes, buffered)

    def write(self, nbytes: float, buffered: bool = False):
        """Process generator performing a write of ``nbytes``."""
        return self._io("write", nbytes, buffered)

    def utilization(self) -> float:
        """Instantaneous busy fraction of the device channel."""
        return self.channel.count / self.channel.capacity
