"""Fluid-flow network model with max-min fair bandwidth sharing.

Long-lived transfers (HDFS writes, MapReduce shuffle, iperf streams) are
modelled as *fluid flows*: each flow traverses a set of capacity-limited
segments (source NIC transmit, destination NIC receive, optionally an
inter-rack trunk) and receives its max-min fair rate, recomputed by
progressive filling every time a flow starts or finishes.  Filling keeps
a count of unfrozen flows per segment and decrements it as each flow
freezes, so a round costs one pass over the segments rather than one
rescan of every segment's flow list.

The implementation keeps per-flow remaining bytes; when the rate
allocation changes, remaining work is rolled forward and the next
completion re-scheduled using a versioned wake-up (the kernel has no
timeout cancellation, so stale wake-ups are recognised and ignored).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..hardware.nic import Nic
from ..sim import Event, Simulation

#: Flows are considered delivered once less than this many bytes remain.
#: Sub-millibyte residues arise from float arithmetic in rate updates;
#: without the threshold a residue can imply a wake-up delay below the
#: clock's float resolution, stalling the simulation at one timestamp.
COMPLETION_THRESHOLD_BYTES = 1e-3


@dataclass(eq=False)
class Segment:
    """A capacity-limited network segment (a NIC direction or a trunk)."""

    name: str
    capacity_Bps: float
    #: NIC whose accounting should track traffic through this segment.
    nic: Optional[Nic] = None
    nic_direction: str = "tx"   # "tx" or "rx"

    def __post_init__(self):
        if not (math.isfinite(self.capacity_Bps) and self.capacity_Bps > 0):
            raise ValueError("segment capacity must be finite and > 0, "
                             f"got {self.capacity_Bps}")
        #: Store-and-forward bookkeeping (see Topology.message): the
        #: time until which the wire is serialising earlier messages.
        #: Equivalent to a capacity-1 FIFO queue — each arrival starts
        #: at max(now, busy_until) — without an Event per hop; fluid
        #: flows ignore it.
        self.busy_until = 0.0


@dataclass(eq=False)
class Flow:
    """One in-flight bulk transfer."""

    segments: Tuple[Segment, ...]
    remaining_bytes: float
    done: Event
    rate_Bps: float = 0.0
    total_bytes: float = field(default=0.0)


class FlowNetwork:
    """Tracks active flows and allocates max-min fair rates."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.flows: List[Flow] = []
        self._last_update = sim.now
        self._version = 0
        self._wake = None

    # -- public API -----------------------------------------------------

    def start_flow(self, segments: List[Segment], nbytes: float) -> Event:
        """Begin a transfer of ``nbytes`` across ``segments``.

        Returns an event that fires when the last byte arrives.  Zero-byte
        transfers complete immediately.
        """
        if not math.isfinite(nbytes):
            raise ValueError(f"nbytes must be finite, got {nbytes}")
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        done = self.sim.event()
        if nbytes == 0:
            done.succeed(0.0)
            return done
        if not segments:
            raise ValueError("a flow needs at least one segment")
        if len(set(segments)) != len(segments):
            raise ValueError("a flow cannot cross the same segment twice")
        flow = Flow(tuple(segments), float(nbytes), done,
                    total_bytes=float(nbytes))
        self._advance_clock()
        self.flows.append(flow)
        self._reallocate()
        return done

    def rescale(self) -> None:
        """Recompute fair shares after a segment capacity change.

        Fault injection mutates ``Segment.capacity_Bps`` (NIC
        degradation and repair); calling this settles bytes moved at the
        old rates, then re-runs progressive filling so every in-flight
        flow continues at the new fair share.  A no-op when idle.
        """
        self._advance_clock()
        self._reallocate()

    # -- internals --------------------------------------------------------

    def _advance_clock(self) -> None:
        """Drain bytes transferred since the last rate change."""
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        finished = []
        for flow in self.flows:
            flow.remaining_bytes -= flow.rate_Bps * dt
            self._account(flow, flow.rate_Bps * dt)
            if flow.remaining_bytes <= COMPLETION_THRESHOLD_BYTES:
                finished.append(flow)
        for flow in finished:
            self.flows.remove(flow)
            flow.done.succeed(self.sim.now)

    @staticmethod
    def _account(flow: Flow, nbytes: float) -> None:
        for segment in flow.segments:
            if segment.nic is None:
                continue
            if segment.nic_direction == "tx":
                segment.nic.bytes_sent += nbytes
            else:
                segment.nic.bytes_received += nbytes

    def _reallocate(self) -> None:
        """Progressive filling: assign max-min fair rates, reschedule."""
        # Clear NIC instantaneous-rate accounting.
        for flow in self.flows:
            for segment in flow.segments:
                if segment.nic is not None:
                    segment.nic.active_rate_Bps = 0.0
        if not self.flows:
            self._version += 1
            return
        unfrozen = set(self.flows)
        rates: Dict[Flow, float] = {flow: 0.0 for flow in self.flows}
        seg_flows: Dict[Segment, List[Flow]] = {}
        for flow in self.flows:
            for segment in flow.segments:
                seg_flows.setdefault(segment, []).append(flow)
        seg_capacity = {seg: seg.capacity_Bps for seg in seg_flows}
        # Unfrozen flows per segment, in seg_flows' insertion order (the
        # tie-break below relies on it).
        active = {seg: len(flows) for seg, flows in seg_flows.items()}
        while unfrozen:
            # Tightest segment determines the next fair-share increment.
            bottleneck, fair = None, float("inf")
            for segment, count in active.items():
                if count:
                    share = seg_capacity[segment] / count
                    if share < fair:
                        bottleneck, fair = segment, share
            if bottleneck is None:
                break
            for flow in [f for f in seg_flows[bottleneck] if f in unfrozen]:
                rates[flow] += fair
                unfrozen.discard(flow)
                for segment in flow.segments:
                    seg_capacity[segment] -= fair
                    active[segment] -= 1
        for flow, rate in rates.items():
            flow.rate_Bps = rate
            for segment in flow.segments:
                if segment.nic is not None:
                    segment.nic.active_rate_Bps += rate
        self._schedule_next_completion()

    def _schedule_next_completion(self) -> None:
        self._version += 1
        version = self._version
        if self._wake is not None:
            # The wake-up belonging to the previous allocation is now
            # stale; cancelling it keeps shuffle-heavy runs from
            # accumulating one dead calendar entry per rate change.
            self._wake.cancel()
            self._wake = None
        horizon = min(
            ((f.remaining_bytes - COMPLETION_THRESHOLD_BYTES / 2)
             / f.rate_Bps
             for f in self.flows if f.rate_Bps > 0),
            default=None)
        if horizon is None:
            return
        wake = self.sim.timeout(max(horizon, 0.0))
        wake.add_callback(lambda _ev: self._on_wake(version))
        self._wake = wake

    def _on_wake(self, version: int) -> None:
        if version != self._version:
            return  # a newer allocation superseded this wake-up
        self._advance_clock()
        self._reallocate()
