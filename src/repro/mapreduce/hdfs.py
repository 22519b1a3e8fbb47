"""HDFS model: block placement, replication, locality, block I/O, repair.

Files are split into blocks; each block's replicas land on distinct
datanodes (first replica spread round-robin, the rest random — or, with
:attr:`Hdfs.rack_aware` set, spread across racks the way the real
NameNode's ``BlockPlacementPolicyDefault`` survives a whole-rack loss).
Reads are local disk when a replica lives on the reading node,
otherwise a remote disk read plus a fluid network flow from a same-rack
replica when one exists (crossing the trunk only when it must).  Writes
pipeline to each replica.  The paper's replication choices (2 on
Edison, 1 on Dell) were made so ~95 % of map tasks are data-local on
both clusters.

:class:`ReplicationMonitor` (opt-in via :meth:`Hdfs.enable_repair`) is
the NameNode's repair loop: on a confirmed node loss it finds every
under-replicated block and re-replicates it over the real topology
through a shared throttle segment, so repair traffic contends with
itself the way ``dfs.datanode.balance.bandwidthPerSec`` makes it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..hardware.server import Server
from ..net import Segment, Topology
from ..sim import Simulation

#: Repair bandwidth shared by every re-replication flow (bits/s), and
#: the re-replications that run at once.
REPAIR_THROTTLE_BPS = 200e6
REPAIR_STREAMS = 2


class BlockUnavailable(Exception):
    """Every replica of a block is on a dead node or failed disk.

    Retrying cannot help — the data is gone until the nodes return —
    so the job runtime converts this into a clean whole-job failure
    instead of burning its attempt budget.
    """


@dataclass
class HdfsBlock:
    """One block of one file.

    Mutable for one reason only: the repair loop re-homes replicas.
    Everything else treats the instance as read-only.
    """

    block_id: int
    size_bytes: int
    replicas: Tuple[str, ...]     # datanode names


@dataclass(frozen=True)
class HdfsFile:
    """A file's metadata: its blocks and their placement."""

    name: str
    size_bytes: int
    blocks: Tuple[HdfsBlock, ...]


class Hdfs:
    """The distributed filesystem over a cluster's datanodes."""

    def __init__(self, sim: Simulation, topology: Topology,
                 datanodes: Sequence[Server], block_bytes: int,
                 replication: int, rng: random.Random):
        if not datanodes:
            raise ValueError("HDFS needs at least one datanode")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        if replication > len(datanodes):
            raise ValueError("replication cannot exceed datanode count")
        if block_bytes < 1:
            raise ValueError("block_bytes must be >= 1")
        self.sim = sim
        self.topology = topology
        self.datanodes = {s.name: s for s in datanodes}
        self._node_order = [s.name for s in datanodes]
        self.block_bytes = block_bytes
        self.replication = replication
        self.rng = rng
        #: Spread replicas across racks; set before any file is staged
        #: (the durability plane's placement choice).
        self.rack_aware = False
        self.files: Dict[str, HdfsFile] = {}
        #: Every placed block, by id — the NameNode's block map, walked
        #: by the repair loop and the durability ledger.
        self.blocks: Dict[int, HdfsBlock] = {}
        #: Bumped by every block-map write (placement and repair); with
        #: the fault plane's status version it keys the cached census.
        self._map_version = 0
        self._census_key: Optional[tuple] = None
        self._census: Tuple[Dict[str, int], Tuple[int, ...]] = ({}, ())
        self.monitor: Optional["ReplicationMonitor"] = None
        #: Remote-read byte counters for the locality accounting: reads
        #: served inside the reader's rack vs across the trunk/ToR.
        self.same_rack_read_bytes = 0.0
        self.cross_rack_read_bytes = 0.0
        self._next_block = 0
        self._rr = 0

    # -- placement --------------------------------------------------------

    def _place_block(self, size: int) -> HdfsBlock:
        primary = self._node_order[self._rr % len(self._node_order)]
        self._rr += 1
        replicas = [primary]
        others = [n for n in self._node_order if n != primary]
        if self.rack_aware and self.replication > 1:
            replicas.extend(self._rack_aware_tail(primary, others))
        else:
            replicas.extend(self.rng.sample(others, self.replication - 1))
        block = HdfsBlock(self._next_block, size, tuple(replicas))
        self.blocks[block.block_id] = block
        self._next_block += 1
        self._map_version += 1
        return block

    def _rack_aware_tail(self, primary: str, others: List[str]) -> List[str]:
        """Secondary replicas spread across racks, NameNode-style: the
        second copy leaves the primary's rack when it can, further
        copies prefer racks not yet holding one."""
        rack_of = self.topology.rack_of
        tail: List[str] = []
        covered = {rack_of(primary)}
        pool = list(others)
        for _ in range(self.replication - 1):
            off_rack = [n for n in pool if rack_of(n) not in covered]
            pick_from = off_rack or pool
            choice = pick_from[self.rng.randrange(len(pick_from))]
            tail.append(choice)
            covered.add(rack_of(choice))
            pool.remove(choice)
        return tail

    def stage_file(self, name: str, size_bytes: int) -> HdfsFile:
        """Register a pre-existing input file (no I/O simulated)."""
        if name in self.files:
            raise ValueError(f"file {name!r} already exists")
        if size_bytes < 1:
            raise ValueError("size_bytes must be >= 1")
        blocks: List[HdfsBlock] = []
        remaining = size_bytes
        while remaining > 0:
            size = min(self.block_bytes, remaining)
            blocks.append(self._place_block(size))
            remaining -= size
        record = HdfsFile(name, size_bytes, tuple(blocks))
        self.files[name] = record
        return record

    # -- I/O ----------------------------------------------------------------

    def _alive(self, name: str) -> bool:
        faults = self.sim.faults
        return (faults is None
                or (faults.is_up(name) and not faults.disk_failed(name)))

    def _live_replicas(self, block: HdfsBlock,
                       reader: Optional[str] = None) -> Tuple[str, ...]:
        """Replicas currently readable (all of them when fault-free).

        With a ``reader`` given, replicas the reader cannot *reach*
        (severed by a partition) are excluded too — HDFS fails fast at
        replica selection rather than stalling into a black hole.
        """
        if self.sim.faults is None:
            return block.replicas
        live = tuple([r for r in block.replicas if self._alive(r)])
        if reader is None or len(self.topology._cuts) == 0:
            return live
        reachable = self.topology.reachable
        return tuple([r for r in live if reachable(reader, r)])

    def read_block(self, node: str, block: HdfsBlock):
        """Process generator: read one block from ``node``.

        Local reads hit the node's own disk; remote reads stream from a
        replica's disk through the network (a fluid flow), preferring a
        replica inside the reader's rack before crossing the ToR/trunk.
        Dead or unreachable replicas are skipped — the reader falls
        back to a surviving one — and :class:`BlockUnavailable` is
        raised when none remain.  One exception: when every remaining
        copy is *intact but severed* by an active partition, the read
        stalls until a heal and retries instead of raising — the data
        still exists, the DFSClient just cannot get at it yet; only a
        block with no intact copy anywhere is declared gone.
        """
        replicas = self._live_replicas(block, reader=node)
        while not replicas:
            if not (self.topology._cuts and self.intact_replicas(block)):
                raise BlockUnavailable(
                    f"block {block.block_id}: all {len(block.replicas)} "
                    f"replica(s) are dead, diskless or unreachable from "
                    f"{node}")
            yield self.topology._heal_barrier()
            replicas = self._live_replicas(block, reader=node)
        if node in replicas:
            yield from self.datanodes[node].storage.read(block.size_bytes)
            return
        rack_of = self.topology.rack_of
        reader_rack = rack_of(node)
        same_rack = tuple([r for r in replicas
                           if rack_of(r) == reader_rack])
        # Same-length pools draw identically from the stream, so the
        # rack preference is invisible in single-rack layouts.
        source = self.rng.choice(same_rack or replicas)
        if rack_of(source) == reader_rack:
            self.same_rack_read_bytes += block.size_bytes
        else:
            self.cross_rack_read_bytes += block.size_bytes
        read = self.sim.process(
            self.datanodes[source].storage.read(block.size_bytes))
        flow = self.topology.network.start_flow(
            self.topology.path(source, node), block.size_bytes)
        yield self.sim.all_of([read, flow])

    def write(self, node: str, nbytes: float):
        """Process generator: write ``nbytes`` through the replica pipeline.

        The first replica is the writer's own disk; each additional
        replica costs a network flow plus a remote disk write, all in
        parallel (HDFS pipelines the stream).  A writer with a failed
        disk sends every copy remote; dead targets are skipped.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if nbytes == 0:
            return
        legs = []
        local_ok = self._alive(node)
        if local_ok:
            legs.append(self.sim.process(
                self.datanodes[node].storage.write(nbytes, buffered=True)))
        others = [n for n in self._node_order if n != node]
        if self.sim.faults is not None:
            others = [n for n in others if self._alive(n)]
            if len(self.topology._cuts):
                reachable = self.topology.reachable
                others = [n for n in others if reachable(node, n)]
        remote_copies = self.replication - 1 if local_ok else self.replication
        for target in self.rng.sample(
                others, min(remote_copies, len(others))):
            legs.append(self.sim.process(self._remote_write(node, target,
                                                            nbytes)))
        if not legs:
            raise BlockUnavailable(
                f"no live datanode can take a {nbytes:.0f}-byte write "
                f"from {node}")
        yield self.sim.all_of(legs)

    def _remote_write(self, src: str, dst: str, nbytes: float):
        yield self.topology.network.start_flow(
            self.topology.path(src, dst), nbytes)
        yield from self.datanodes[dst].storage.write(nbytes, buffered=True)

    # -- block health (the durability ledger's raw material) --------------

    def intact_replicas(self, block: HdfsBlock) -> Tuple[str, ...]:
        """Homes whose *data* survives — only ``disk_fail`` destroys
        bytes; a crashed or partitioned node keeps its copy."""
        faults = self.sim.faults
        if faults is None:
            return block.replicas
        return tuple([r for r in block.replicas
                      if not faults.disk_failed(r)])

    def readable_replicas(self, block: HdfsBlock) -> Tuple[str, ...]:
        """Intact homes that are also up and reachable right now."""
        faults = self.sim.faults
        if faults is None:
            return block.replicas
        return tuple([r for r in block.replicas
                      if faults.is_up(r) and faults.is_reachable(r)
                      and not faults.disk_failed(r)])

    def census(self) -> Tuple[Dict[str, int], List[int]]:
        """The health counts and the ids of every lost block.

        A block is *lost* when no replica keeps its data (every home's
        disk failed), *unavailable* when it is live but no copy is
        readable right now, and *under-replicated* when fewer than
        ``replication`` copies are.  ``blocks_created`` comes from the
        placement counter, not from the map, so ``created == live +
        lost`` is a real check on the map's bookkeeping.

        The result only changes when the block map or a node's fault
        flags do, so it is cached behind their versions; the map's size
        is part of the key too, so a block that leaves the map by any
        other path still shows at once.  Each call returns fresh
        containers.
        """
        faults = self.sim.faults
        key = (self._map_version, len(self.blocks), faults,
               None if faults is None else faults.status_version)
        if key != self._census_key:
            self._census = self._walk_census(faults)
            self._census_key = key
        counts, lost_ids = self._census
        return dict(counts), list(lost_ids)

    def _walk_census(self, faults) -> Tuple[Dict[str, int], Tuple[int, ...]]:
        """One pass over the block map.  Each datanode's fault flags are
        read once; the block walk then needs only set membership."""
        dead = set()        # disk failed: the copy's bytes are gone
        unreadable = set()  # dead, down or severed right now
        if faults is not None:
            for name in self._node_order:
                if faults.disk_failed(name):
                    dead.add(name)
                    unreadable.add(name)
                elif not (faults.is_up(name) and faults.is_reachable(name)):
                    unreadable.add(name)
        replication = self.replication
        live = under = unavailable = 0
        lost_ids: List[int] = []
        for block in self.blocks.values():
            # stranded: intact copies that cannot be read right now
            readable = stranded = 0
            if not unreadable:
                readable = len(block.replicas)
            else:
                for name in block.replicas:
                    if name not in unreadable:
                        readable += 1
                    elif name not in dead:
                        stranded += 1
            if not (readable or stranded):
                lost_ids.append(block.block_id)
                continue
            live += 1
            if readable < replication:
                under += 1
                if readable == 0:
                    unavailable += 1
        counts = {"blocks_created": self._next_block, "blocks_live": live,
                  "blocks_lost": len(lost_ids), "under_replicated": under,
                  "unavailable": unavailable}
        return counts, tuple(lost_ids)

    def health_summary(self) -> Dict[str, int]:
        """Block census counts: created == live + lost is the
        conservation invariant the durability ledger asserts at every
        sample.

        ``unavailable`` splits out the live blocks no reader can reach
        *right now* (every intact copy dead or severed) — the
        rack-oblivious-placement failure mode a single ``switch_down``
        exposes: not data loss, but downtime counted in block-seconds.
        """
        return self.census()[0]

    # -- repair (opt-in) --------------------------------------------------

    def enable_repair(self, detector,
                      ledger=None) -> "ReplicationMonitor":
        """Arm the NameNode-style re-replication loop (off by default);
        ``detector`` (a :class:`~repro.faults.PhiAccrualDetector`)
        confirms node losses."""
        if self.monitor is not None:
            raise RuntimeError("repair already enabled")
        self.monitor = ReplicationMonitor(self, detector, ledger=ledger)
        return self.monitor


class ReplicationMonitor:
    """The NameNode's repair loop: confirm loss, re-replicate, throttle.

    Listens on the fault plane; a ``down`` edge on a datanode waits for
    the phi-accrual detector to convict it, so a node that blips back
    is never repaired around.  Confirmed losses enqueue every
    under-replicated block; repairs run at most :data:`REPAIR_STREAMS`
    at a time and every repair flow carries the shared
    :data:`REPAIR_THROTTLE_BPS` segment, so repair traffic
    self-contends like ``dfs.datanode.balance.bandwidthPerSec`` instead
    of strangling the job's shuffle.

    Spawns no processes until a fault actually fires — an armed monitor
    on a quiet cluster is bit-invisible.
    """

    #: Fault kinds whose ``down`` edge can cost replicas.
    LOSS_KINDS = ("crash", "partition", "switch_down", "disk_fail")

    def __init__(self, hdfs: Hdfs, detector, ledger=None):
        faults = hdfs.sim.faults
        if faults is None:
            raise RuntimeError("repair needs a FaultInjector attached "
                               "(there is nothing to repair without one)")
        self.hdfs = hdfs
        self.sim = hdfs.sim
        self.faults = faults
        self.ledger = ledger
        self.detector = detector
        self.throttle = Segment("hdfs.repair.throttle",
                                REPAIR_THROTTLE_BPS / 8.0)
        self._queue: List[int] = []
        self._queued: set = set()
        self._deferred: List[int] = []
        self._confirming: set = set()
        self._running = False
        self.repairs_completed = 0
        self.repair_bytes = 0.0
        self.repairs_deferred = 0
        faults.add_listener(self._on_fault_event)

    # -- fault plane hooks ------------------------------------------------

    def _on_fault_event(self, event: str, node: str, kind: str) -> None:
        if node not in self.hdfs.datanodes:
            return
        if event == "down" and kind in self.LOSS_KINDS:
            if node not in self._confirming:
                self._confirming.add(node)
                self.sim.process(self._confirm_loss(node, kind),
                                 name=f"hdfs-confirm-{node}")
        elif event == "up" and self._deferred:
            # A returning node may be the missing source or target.
            self._requeue_deferred()

    def _node_healthy(self, node: str) -> bool:
        return (self.faults.is_up(node)
                and self.faults.is_reachable(node)
                and not self.faults.disk_failed(node))

    def _confirm_loss(self, node: str, kind: str):
        try:
            # A dead disk is reported by its own datanode — no silence
            # to disambiguate, so confirmation is immediate.
            if kind != "disk_fail":
                suspected = yield from self.detector.wait_suspect(
                    node, healthy=lambda: self._node_healthy(node))
                if not suspected:
                    return
        finally:
            self._confirming.discard(node)
        if self._node_healthy(node):
            return  # it blipped back inside the window
        self._scan_node(node)

    def _scan_node(self, node: str) -> None:
        for block in self.hdfs.blocks.values():
            if (node in block.replicas
                    and block.block_id not in self._queued
                    and self._needs_repair(block)):
                self._queue.append(block.block_id)
                self._queued.add(block.block_id)
        self._kick()

    def _needs_repair(self, block: HdfsBlock) -> bool:
        intact = self.hdfs.intact_replicas(block)
        if not intact:
            return False  # lost for good; repair cannot invent bytes
        return len(self.hdfs.readable_replicas(block)) < \
            self.hdfs.replication

    # -- the repair pipeline ----------------------------------------------

    def _kick(self) -> None:
        if self._queue and not self._running:
            self._running = True
            self.sim.process(self._run(), name="hdfs-repair")

    def _requeue_deferred(self) -> None:
        while self._deferred:
            self._queue.append(self._deferred.pop(0))
        self._kick()

    def _run(self):
        try:
            while self._queue:
                batch, self._queue = (self._queue[:REPAIR_STREAMS],
                                      self._queue[REPAIR_STREAMS:])
                procs = [self.sim.process(
                    self._repair_block(self.hdfs.blocks[bid]),
                    name=f"hdfs-repair-{bid}") for bid in batch]
                yield self.sim.all_of(procs)
        finally:
            self._running = False

    def _pick_target(self, block: HdfsBlock) -> Optional[str]:
        """First healthy non-replica node, preferring uncovered racks
        when placement is rack-aware.  Deterministic: no RNG, so a
        repair history replays exactly from the run seed."""
        rack_of = self.hdfs.topology.rack_of
        covered = {rack_of(r) for r in self.hdfs.readable_replicas(block)}
        candidates = [n for n in self.hdfs._node_order
                      if n not in block.replicas
                      and self._node_healthy(n)]
        if self.hdfs.rack_aware:
            for node in candidates:
                if rack_of(node) not in covered:
                    return node
        return candidates[0] if candidates else None

    def _repair_block(self, block: HdfsBlock):
        bid = block.block_id
        if not self._needs_repair(block):
            self._queued.discard(bid)
            return
        readable = self.hdfs.readable_replicas(block)
        target = self._pick_target(block)
        if not readable or target is None:
            # No live source or no room to put the copy: park the block
            # until an "up" edge makes repair possible again.
            self._deferred.append(bid)
            self.repairs_deferred += 1
            return
        source = readable[0]
        started = self.sim.now
        read = self.sim.process(
            self.hdfs.datanodes[source].storage.read(block.size_bytes))
        path = self.hdfs.topology.path(source, target) + [self.throttle]
        flow = self.hdfs.topology.network.start_flow(path,
                                                     block.size_bytes)
        yield self.sim.all_of([read, flow])
        yield from self.hdfs.datanodes[target].storage.write(
            block.size_bytes, buffered=True)
        # Re-home: keep every intact copy, invalidate one stale home if
        # the new copy would overshoot the target count.
        faults = self.faults
        keep = [r for r in block.replicas if not faults.disk_failed(r)]
        if len(keep) + 1 > self.hdfs.replication:
            now_readable = set(self.hdfs.readable_replicas(block))
            for r in keep:
                if r not in now_readable:
                    keep.remove(r)
                    break
        block.replicas = tuple(keep) + (target,)
        self.hdfs._map_version += 1
        self._queued.discard(bid)
        self.repairs_completed += 1
        self.repair_bytes += block.size_bytes
        seconds = self.sim.now - started
        if self.ledger is not None:
            self.ledger.on_repair(source, target, seconds,
                                  block.size_bytes)
        if self.sim.trace is not None:
            self.sim.trace.complete("hdfs.repair", started,
                                    category="hdfs", node=target,
                                    block=bid, source=source)
