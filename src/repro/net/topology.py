"""Cluster network topology: racks, trunks, RTTs and flow paths.

The physical layout Section 5.1.1 describes:

* the Dell servers and the client machines share one server room and a
  1 Gb/s top-of-rack fabric (RTT 0.24 ms between Dell boxes), and
* the Edison cluster sits in a different room, reached through a single
  1 Gb/s uplink (Dell-Edison RTT 0.8 ms, Edison-Edison RTT 1.3 ms).

The topology object owns one transmit and one receive
:class:`~repro.net.flows.Segment` per server plus a duplex inter-room
trunk, and produces the segment path any bulk flow must traverse.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..core import paperdata as paper
from ..hardware.server import Server
from ..sim import Simulation
from .flows import FlowNetwork, Segment

#: Capacity of the single uplink between the two rooms, and of each
#: named rack's top-of-rack uplink (bits/s).
TRUNK_BPS = 1e9

#: Rack labels that denote a whole room (the legacy two-room layout).
ROOM_RACKS = ("edison-room", "dell-room")


class Topology:
    """Registry of servers, their NIC segments and the inter-room trunk."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.network = FlowNetwork(sim)
        self._tx: Dict[str, Segment] = {}
        self._rx: Dict[str, Segment] = {}
        self._rack: Dict[str, str] = {}
        self._room: Dict[str, str] = {}
        self._servers: Dict[str, Server] = {}
        trunk_Bps = TRUNK_BPS / 8.0
        self.trunk_up = Segment("trunk.edison->dell", trunk_Bps)
        self.trunk_down = Segment("trunk.dell->edison", trunk_Bps)
        # Named (non-room) racks get an explicit ToR uplink/downlink
        # pair, created lazily so the legacy two-room layout never pays
        # for them.
        self._tor_Bps = TRUNK_BPS / 8.0
        self._tor_up: Dict[str, Segment] = {}
        self._tor_down: Dict[str, Segment] = {}
        # Reachability overlay: cut_id -> (mode, frozenset of far-side
        # nodes).  Empty in every run that injects no partition, which
        # keeps the hot paths below to a single dict-truthiness test.
        self._cuts: Dict[int, Tuple[str, frozenset]] = {}
        self._cut_seq = 0
        self._heal_event = None
        # (src, dst) memo tables: the web tier calls rtt()/message() per
        # request, and the answers never change once servers are added.
        self._rtt_cache: Dict[tuple, float] = {}
        self._path_cache: Dict[tuple, List[Segment]] = {}
        # Fused (one-way latency, path) plan per (src, dst): message()
        # is called once per request/reply and needs both answers.
        self._msg_cache: Dict[tuple, tuple] = {}

    def add_server(self, server: Server, rack: Optional[str] = None) -> None:
        """Register ``server``; rack defaults to its platform's room."""
        if server.name in self._servers:
            raise ValueError(f"duplicate server name {server.name!r}")
        self._rtt_cache.clear()
        self._path_cache.clear()
        self._msg_cache.clear()
        room = ("edison-room" if server.platform == "edison"
                else "dell-room")
        rack = rack or room
        line_Bps = server.nic.spec.bytes_per_second
        self._servers[server.name] = server
        self._rack[server.name] = rack
        self._room[server.name] = room
        if rack not in ROOM_RACKS and rack not in self._tor_up:
            self._tor_up[rack] = Segment(f"{rack}.tor-up", self._tor_Bps)
            self._tor_down[rack] = Segment(f"{rack}.tor-down", self._tor_Bps)
        self._tx[server.name] = Segment(
            f"{server.name}.tx", line_Bps, nic=server.nic, nic_direction="tx")
        self._rx[server.name] = Segment(
            f"{server.name}.rx", line_Bps, nic=server.nic, nic_direction="rx")

    def nic_segments(self, name: str):
        """The (tx, rx) segment pair of one server's NIC.

        Fault injection scales their ``capacity_Bps`` to model link
        degradation; callers must :meth:`FlowNetwork.rescale` afterwards
        so in-flight fluid flows re-converge on the new rates.
        """
        return self._tx[name], self._rx[name]

    def rack_of(self, name: str) -> str:
        return self._rack[name]

    def racks(self) -> List[str]:
        """Distinct rack labels, in server-registration order."""
        seen: Dict[str, None] = {}
        for rack in self._rack.values():
            seen.setdefault(rack)
        return list(seen)

    def rack_members(self, rack: str) -> List[str]:
        """Servers registered under ``rack``, in registration order."""
        return [name for name, r in self._rack.items() if r == rack]

    def path(self, src: str, dst: str) -> List[Segment]:
        """Segments a flow from ``src`` to ``dst`` must traverse."""
        key = (src, dst)
        segments = self._path_cache.get(key)
        if segments is None:
            if src == dst:
                segments = []  # loopback: no network segments involved
            else:
                segments = [self._tx[src]]
                src_rack, dst_rack = self._rack[src], self._rack[dst]
                if src_rack != dst_rack:
                    tor = self._tor_up.get(src_rack)
                    if tor is not None:
                        segments.append(tor)
                    if self._room[src] != self._room[dst]:
                        segments.append(
                            self.trunk_down
                            if self._room[dst] == "edison-room"
                            else self.trunk_up)
                    tor = self._tor_down.get(dst_rack)
                    if tor is not None:
                        segments.append(tor)
                segments.append(self._rx[dst])
            self._path_cache[key] = segments
        return segments

    # ------------------------------------------------------------------
    # Reachability overlay (partitions and switch failures)
    # ------------------------------------------------------------------

    def sever(self, nodes: Iterable[str], isolate: bool = False) -> int:
        """Cut the fabric around ``nodes``; returns a cut id for heal().

        With ``isolate=False`` the cut is a *partition*: traffic between
        the named set and the rest of the cluster is severed but nodes
        on the same side still talk to each other.  With ``isolate=True``
        (a dead ToR switch) the named nodes lose all connectivity,
        including to each other — every path through the switch is gone.
        """
        members = frozenset(nodes)
        if not members:
            raise ValueError("cannot sever an empty node set")
        unknown = members - self._servers.keys()
        if unknown:
            raise ValueError(f"unknown servers in cut: {sorted(unknown)}")
        self._cut_seq += 1
        self._cuts[self._cut_seq] = (
            "isolate" if isolate else "cut", members)
        return self._cut_seq

    def heal(self, cut_id: int) -> None:
        """Remove a cut; wakes every transfer stalled on reachability."""
        if cut_id not in self._cuts:
            raise ValueError(f"unknown cut id {cut_id}")
        del self._cuts[cut_id]
        event, self._heal_event = self._heal_event, None
        if event is not None and not event.triggered:
            event.succeed()

    def reachable(self, src: str, dst: str) -> bool:
        """True when no active cut separates ``src`` from ``dst``."""
        if not self._cuts or src == dst:
            return True
        for mode, members in self._cuts.values():
            if mode == "isolate":
                if src in members or dst in members:
                    return False
            elif (src in members) != (dst in members):
                return False
        return True

    def _heal_barrier(self):
        """An event fired at the next heal; shared by all stalled waits."""
        if self._heal_event is None or self._heal_event.triggered:
            self._heal_event = self.sim.event()
        return self._heal_event

    def wait_reachable(self, src: str, dst: str):
        """Process generator: stall until ``src`` can reach ``dst``.

        Models TCP retransmitting into a black hole: the conversation
        makes no progress, holds no wire resources, and resumes the
        instant the route returns; the surrounding timeouts turn a long
        stall into an application-level failure.  Callers that would
        rather fail fast test :meth:`reachable` first.
        """
        while not self.reachable(src, dst):
            yield self._heal_barrier()

    def rtt(self, src: str, dst: str) -> float:
        """Measured round-trip time between two servers (Section 4.4)."""
        key = (src, dst)
        cached = self._rtt_cache.get(key)
        if cached is not None:
            return cached
        if src == dst:
            value = 0.0
        else:
            pair = tuple(sorted((self._servers[src].platform,
                                 self._servers[dst].platform)))
            value = paper.S44_RTT_S.get((pair[0], pair[1]),
                                        paper.S44_RTT_S[("dell", "edison")])
        self._rtt_cache[key] = value
        return value

    def one_way_latency(self, src: str, dst: str) -> float:
        """Half the measured RTT — per-direction propagation+switching."""
        return self.rtt(src, dst) / 2.0

    def transfer(self, src: str, dst: str, nbytes: float):
        """Process generator: bulk-transfer ``nbytes`` from src to dst.

        Adds the one-way latency up front, then a max-min fair fluid flow
        across the path.  Loopback transfers cost memory-copy time only
        and are approximated as instantaneous at this layer.
        """
        if self._cuts:
            yield from self.wait_reachable(src, dst)
        latency = self.one_way_latency(src, dst)
        if latency > 0:
            yield latency
        path = self.path(src, dst)
        if path:
            yield self.network.start_flow(path, nbytes)

    def message(self, src: str, dst: str, nbytes: float):
        """Process generator: send one request/reply-sized message.

        The high-rate web tier cannot afford a fluid flow per message,
        so messages use a store-and-forward model instead: the message
        queues FIFO at each segment along the path and holds it for its
        serialisation time.  For multi-segment paths this is mildly
        conservative (real TCP pipelines packets across segments), an
        error bounded by 2x on the wire time of intra-room hops — small
        against the CPU service times that dominate web latency, and
        absorbed by the cost-model calibration.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if self._cuts:
            yield from self.wait_reachable(src, dst)
        sim = self.sim
        plan = self._msg_cache.get((src, dst))
        if plan is None:
            plan = (self.one_way_latency(src, dst),
                    tuple(self.path(src, dst)))
            self._msg_cache[(src, dst)] = plan
        latency, path = plan
        if latency > 0:
            yield latency
        for segment in path:
            # FIFO store-and-forward without a queue object: a message
            # starts serialising when the wire frees up, so its
            # departure is max(now, busy_until) + wire time — the exact
            # recursion a capacity-1 FIFO resource computes, at one
            # calendar event per hop instead of a grant/hold/release
            # event chain per message.
            now = sim._now
            start = segment.busy_until
            if start < now:
                start = now
            done = start + nbytes / segment.capacity_Bps
            segment.busy_until = done
            yield done - now
            nic = segment.nic
            if nic is not None:
                if segment.nic_direction == "tx":
                    nic.bytes_sent += nbytes
                else:
                    nic.bytes_received += nbytes
