"""Fluid-flow network model with max-min fair bandwidth sharing.

Long-lived transfers (HDFS writes, MapReduce shuffle, iperf streams) are
modelled as *fluid flows*: each flow traverses a set of capacity-limited
segments (source NIC transmit, destination NIC receive, optionally an
inter-rack trunk) and receives its max-min fair rate, recomputed by
progressive filling every time a flow starts or finishes.  Filling runs
over one row per segment, in first-touch order (flows in start order,
each flow's segments in path order): the capacity left, the count of
unfrozen flows and the flows through it.  Each round takes the first row
with the strictly smallest ``capacity / count`` as the bottleneck and
freezes its unfrozen flows at that share, subtracting it from each of
their rows; no round rebuilds a row.

The implementation keeps per-flow remaining bytes; when the rate
allocation changes, remaining work is rolled forward and the next
completion is found in the same pass that sums the NIC rates.  A newer
allocation cancels the pending wake-up (``Timeout.cancel``), so the one
that fires is always the current one.  The only exception is a drained
network, which keeps its last wake-up; that wake then finds no flow to
roll forward.
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
#: A wake-up is aimed at half the threshold, so float residue still
#: leaves the finishing flow under it.
_HALF_THRESHOLD = COMPLETION_THRESHOLD_BYTES / 2


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
            nbytes = flow.rate_Bps * dt
            flow.remaining_bytes -= nbytes
            for segment in flow.segments:
                nic = segment.nic
                if nic is None:
                    continue
                if segment.nic_direction == "tx":
                    nic.bytes_sent += nbytes
                else:
                    nic.bytes_received += nbytes
            if flow.remaining_bytes <= COMPLETION_THRESHOLD_BYTES:
                finished.append(flow)
        for flow in finished:
            # A NIC left with no flow keeps no share; _reallocate resets
            # and re-sums every NIC still carrying one.
            for segment in flow.segments:
                if segment.nic is not None:
                    segment.nic.active_rate_Bps = 0.0
            self.flows.remove(flow)
            flow.done.succeed(self.sim.now)

    def _reallocate(self) -> None:
        """Progressive filling: assign max-min fair rates, reschedule."""
        flows = self.flows
        if not flows:
            return
        # One row per segment in first-touch order: [capacity left,
        # unfrozen flows, flows through it].  Touched NICs restart at 0.
        rows: Dict[Segment, list] = {}
        for flow in flows:
            for segment in flow.segments:
                row = rows.get(segment)
                if row is None:
                    rows[segment] = [segment.capacity_Bps, 1, [flow]]
                    if segment.nic is not None:
                        segment.nic.active_rate_Bps = 0.0
                else:
                    row[1] += 1
                    row[2].append(flow)
        table = list(rows.values())
        frozen = set()
        unfrozen = len(flows)
        while unfrozen:
            # The tightest row sets the next fair-share increment.
            bottleneck, fair = None, math.inf
            for row in table:
                count = row[1]
                if count:
                    share = row[0] / count
                    if share < fair:
                        bottleneck, fair = row, share
            if bottleneck is None:
                for flow in flows:
                    if flow not in frozen:
                        flow.rate_Bps = 0.0
                break
            for flow in bottleneck[2]:
                if flow in frozen:
                    continue
                frozen.add(flow)
                unfrozen -= 1
                flow.rate_Bps = 0.0 + fair
                for segment in flow.segments:
                    row = rows[segment]
                    row[0] -= fair
                    row[1] -= 1
        # NIC rates in flow order, and the earliest completion.
        horizon = None
        for flow in flows:
            rate = flow.rate_Bps
            for segment in flow.segments:
                nic = segment.nic
                if nic is not None:
                    nic.active_rate_Bps += rate
            if rate > 0:
                left = (flow.remaining_bytes - _HALF_THRESHOLD) / rate
                if horizon is None or left < horizon:
                    horizon = left
        if self._wake is not None:
            # The wake-up belonging to the previous allocation is now
            # stale; cancelling it keeps shuffle-heavy runs from
            # accumulating one dead calendar entry per rate change.
            self._wake.cancel()
            self._wake = None
        if horizon is None:
            return
        wake = self.sim.timeout(max(horizon, 0.0))
        wake.add_callback(self._on_wake)
        self._wake = wake

    def _on_wake(self, _wake: Event) -> None:
        self._advance_clock()
        self._reallocate()
