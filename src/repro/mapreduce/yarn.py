"""YARN resource management: NodeManagers and container allocation.

YARN 2.5's DefaultResourceCalculator schedules on *memory only* — which
is how the paper runs 4 map containers on an Edison's 2 vcores ("two or
even more containers per vcore sometimes better utilizes CPU").  The
scheduler grants anonymous requests on NodeManager heartbeats, on the
least-loaded node that fits.  Data locality (the paper's ~95 %) is the
application master's doing: it hands each granted node a split stored
there (see ``runtime._InputPool``).

Allocation polling is Terasort's largest host cost (hundreds of
thousands of rounds per job).  A round still schedules three calendar
entries — heartbeat wait, master vCPU grant, master CPU burst — but the
grant, and usually the burst, are taken in place by the calendar's
tail handoff (see ``repro.sim.kernel``).  An uncontended round holds
the master's vCPU through one reused key and yields its burst as a
bare delay, so it allocates nothing; only a contended master builds a
``Request``.  A round on a full cluster is answered by a fit bound
without a scan of the NodeManagers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from ..hardware.server import Server
from ..sim import Simulation, heartbeat_jitter
from ..sim.resources import Holder
from .config import HadoopConfig

if TYPE_CHECKING:   # the scheduler never touches the global random module:
    import random   # all draws come through a seeded repro.sim.rng stream


@dataclass
class ContainerGrant:
    """A granted container: where it runs and what it reserved."""

    node: str
    mem_mb: int


class _FitBound:
    """The most free memory of any NodeManager that is up.

    Every write to a NodeManager's ``down`` or ``free_mem_mb`` goes
    through its setter, which refreshes ``mb``, so a request larger
    than ``mb`` fits nowhere: the scheduler answers it without a scan.
    """

    __slots__ = ("nodes", "mb")

    def __init__(self):
        self.nodes = []
        self.refresh()

    def refresh(self) -> None:
        # With no NodeManager up, every request exceeds the bound.
        self.mb = max((nm._free_mem_mb for nm in self.nodes if not nm._down),
                      default=float("-inf"))


class NodeManager:
    """Per-node bookkeeping of schedulable memory."""

    def __init__(self, server: Server, task_mem_mb: int, fit: _FitBound):
        if task_mem_mb < 1:
            raise ValueError("task_mem_mb must be >= 1")
        self.server = server
        self.total_mem_mb = task_mem_mb
        self._free_mem_mb = task_mem_mb
        self._down = False
        self._fit = fit
        fit.nodes.append(self)
        fit.refresh()

    @property
    def free_mem_mb(self) -> int:
        """Schedulable memory not reserved by a container."""
        return self._free_mem_mb

    @free_mem_mb.setter
    def free_mem_mb(self, mb: int) -> None:
        self._free_mem_mb = mb
        self._fit.refresh()

    @property
    def down(self) -> bool:
        """Blacklisted after its heartbeats stopped (node crash)."""
        return self._down

    @down.setter
    def down(self, down: bool) -> None:
        self._down = down
        self._fit.refresh()

    def can_fit(self, mem_mb: int) -> bool:
        return not self.down and self.free_mem_mb >= mem_mb

    def mark_down(self) -> None:
        """Blacklist the node and reclaim every container on it.

        The ResourceManager expires a NodeManager whose heartbeats stop
        and returns its containers to the pool; the memory mirror is
        freed in one sweep, so releases for grants that died with the
        node must be skipped (see :meth:`YarnScheduler.release`).
        """
        if self.down:
            return
        self.down = True
        occupied = self.total_mem_mb - self.free_mem_mb
        if occupied > 0:
            self.server.memory.free(occupied * 1e6)
        self.free_mem_mb = self.total_mem_mb

    def mark_up(self) -> None:
        """Return a rebooted node to service with a fresh container pool."""
        self.down = False

    def reserve(self, mem_mb: int) -> None:
        # Checked before any state moves: a non-positive size would
        # otherwise raise from the memory mirror after free_mem_mb grew.
        if mem_mb < 1:
            raise ValueError("mem_mb must be >= 1")
        if not self.can_fit(mem_mb):
            raise ValueError(
                f"{self.server.name}: {mem_mb} MB > {self.free_mem_mb} free")
        self.free_mem_mb -= mem_mb
        # Mirror into the hardware memory model for the Fig 12-17 curves.
        self.server.memory.reserve(mem_mb * 1e6)

    def release(self, mem_mb: int) -> None:
        if mem_mb < 1:
            raise ValueError("mem_mb must be >= 1")
        if self.free_mem_mb + mem_mb > self.total_mem_mb:
            # An over-release means a container was returned twice (or
            # with the wrong size); clamping here would silently mask
            # the double-release and corrupt the memory mirror below.
            raise ValueError(
                f"{self.server.name}: releasing {mem_mb} MB would leave "
                f"{self.free_mem_mb + mem_mb} MB free of "
                f"{self.total_mem_mb} MB total — double release?")
        self.free_mem_mb += mem_mb
        self.server.memory.free(mem_mb * 1e6)


class YarnScheduler:
    """FIFO capacity scheduler with heartbeat-paced grants."""

    #: ResourceManager CPU per scheduling round (MI): matching a request
    #: against node reports and updating cluster state.  Negligible on a
    #: Xeon master; ruinous on an Edison master with hundreds of
    #: outstanding requests — the bottleneck the paper hit when it tried
    #: an Edison namenode/RM (Section 5.2).
    RM_MI_PER_ROUND = 20.0
    #: Working set of namenode + ResourceManager heaps (bytes); a master
    #: whose RAM cannot hold it pages constantly.
    RM_WORKING_SET_BYTES = 2e9
    #: Path-length multiplier while the master is thrashing.
    RM_SWAP_PENALTY = 25.0
    #: Master-side CPU per task commit (MI): namenode rename, job
    #: history write, AM bookkeeping.  ~0.03 ms on a Xeon master;
    #: seconds on a paging Edison master — task commits serialise
    #: through the master and the job crawls.
    COMMIT_MI = 300.0

    def __init__(self, sim: Simulation, slaves: Sequence[Server],
                 config: HadoopConfig, rng: random.Random,
                 master: Optional[Server] = None):
        if not slaves:
            raise ValueError("the scheduler needs at least one NodeManager")
        self.sim = sim
        self.config = config
        self.rng = rng
        self.master = master
        self._fit = _FitBound()
        self.nodes: Dict[str, NodeManager] = {
            s.name: NodeManager(s, config.node_task_mem_mb, self._fit)
            for s in slaves}

    def _try_grant(self, mem_mb: int,
                   avoid: Sequence[str] = ()) -> Optional[ContainerGrant]:
        """Reserve ``mem_mb`` on the least-loaded fitting node, or None.

        Nodes in ``avoid`` are skipped; on equal free memory the first
        node wins.  One pass and no temporary lists.  :meth:`allocate`
        calls this only when ``mem_mb`` is within the fit bound: on a
        full cluster nearly every round asks for more than any node
        has, and ``avoid`` only narrows the set, so skipping the call
        is exact.
        """
        best = None
        best_name = None
        for name, nm in self.nodes.items():
            if (not nm._down and nm._free_mem_mb >= mem_mb
                    and name not in avoid
                    and (best is None
                         or nm._free_mem_mb > best._free_mem_mb)):
                best = nm
                best_name = name
        if best is None:
            return None
        best.reserve(mem_mb)
        return ContainerGrant(node=best_name, mem_mb=mem_mb)

    def allocate(self, mem_mb: int,
                 max_heartbeats: Optional[int] = None,
                 avoid: Sequence[str] = ()):
        """Process generator: wait for a container, heartbeat by heartbeat.

        Returns a :class:`ContainerGrant`.  With ``max_heartbeats`` set,
        the request gives up after that many unsatisfied rounds and
        returns ``None`` — how speculative attempts avoid camping on a
        full cluster's queue.  Nodes in ``avoid`` are never granted (a
        speculative twin must not land beside the straggler it is
        insuring against).

        One round schedules three calendar entries (the jittered
        heartbeat wait, the master's vCPU grant and its CPU burst; two
        without a master).  Everything a round reads is bound once per
        request, the heartbeat window is checked once, and the vCPU is
        held by one :class:`~repro.sim.resources.Holder` for the whole
        request: where the grant would be the next pop (see
        :meth:`~repro.sim.Resource.hold_in_place`), a round takes it in
        place and yields its burst as a bare delay, so it builds no
        ``Request`` and no ``Cpu.execute`` generator.  A contended
        master falls back to ``Cpu.execute``.
        """
        if mem_mb < 1:
            raise ValueError("mem_mb must be >= 1")
        sim = self.sim
        wait = heartbeat_jitter(self.rng, self.config.heartbeat_s)
        try_grant = self._try_grant
        fit = self._fit
        master = self.master
        if master is not None:
            master_cpu = master.cpu
            vcores = master_cpu.vcores
            hold = Holder()
            round_mi = self.RM_MI_PER_ROUND * self._master_penalty()
        requested_at = sim.now
        heartbeats = 0
        while True:
            if max_heartbeats is not None and heartbeats >= max_heartbeats:
                return None
            # Requests ride the next NM heartbeat (jittered).
            yield wait()
            if master is not None:
                # The RM does real work per scheduling round; a weak
                # master serialises every waiting request through its
                # tiny CPU, and one without room for the namenode+RM
                # working set pays a paging penalty on top ("a single
                # Edison node cannot fulfill resource-intensive tasks").
                if vcores.hold_in_place(hold):
                    try:
                        yield round_mi / master_cpu.rate()
                    finally:
                        vcores.release(hold)
                else:
                    yield from master_cpu.execute(round_mi)
            grant = try_grant(mem_mb, avoid) if mem_mb <= fit.mb else None
            if grant is not None:
                if sim.trace is not None:
                    # ``local`` stays in the span's schema: every grant
                    # is anonymous, so it is always False.
                    sim.trace.complete(
                        "container.wait", requested_at, category="yarn",
                        node=grant.node, mem_mb=grant.mem_mb,
                        local=False, heartbeats=heartbeats)
                return grant
            heartbeats += 1

    def _master_penalty(self) -> float:
        if (self.master is not None
                and self.master.spec.memory.capacity_bytes
                < self.RM_WORKING_SET_BYTES):
            return self.RM_SWAP_PENALTY
        return 1.0

    def master_commit(self):
        """Process generator: the master-side share of one task commit."""
        if self.master is None:
            return
        yield from self.master.cpu.execute(
            self.COMMIT_MI * self._master_penalty())

    def release(self, grant: ContainerGrant) -> None:
        """Return a container's memory to its node.

        Releasing against a blacklisted node is a no-op: the expiry
        sweep (:meth:`mark_node_down`) already reclaimed everything, so
        honouring the release would double-free the memory mirror.
        """
        nm = self.nodes[grant.node]
        if nm.down:
            return
        nm.release(grant.mem_mb)
        if self.sim.trace is not None:
            self.sim.trace.instant("container.release", category="yarn",
                                   node=grant.node, mem_mb=grant.mem_mb)

    # -- failure detection (NodeManager heartbeat expiry) ----------------

    def mark_node_down(self, name: str) -> None:
        """Blacklist ``name`` and reclaim its containers."""
        nm = self.nodes.get(name)
        if nm is None or nm.down:
            return
        nm.mark_down()
        if self.sim.trace is not None:
            self.sim.trace.instant("node.blacklist", category="yarn",
                                   node=name)

    def mark_node_up(self, name: str) -> None:
        """Return a rebooted ``name`` to the schedulable pool."""
        nm = self.nodes.get(name)
        if nm is None or not nm.down:
            return
        nm.mark_up()
        if self.sim.trace is not None:
            self.sim.trace.instant("node.rejoin", category="yarn",
                                   node=name)
