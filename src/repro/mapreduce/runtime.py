"""The MapReduce job runtime: map waves, shuffle, merge, reduce.

A :class:`JobRunner` executes one job specification on a Hadoop cluster
(one Dell master + N slaves).  Every phase consumes the simulated
hardware it would on the real testbed:

* container allocation rides NodeManager heartbeats (YARN scheduler),
* JVM/task start burns CPU on the container's node,
* input splits are read from HDFS (local disk ~95 % of the time),
* map/sort CPU is diced into slices so concurrent containers share
  vcores fairly,
* map output spills to the local disk (page-cache-buffered),
* shuffle moves each node's map output to reducers as fluid flows,
* reducers merge (spilling to disk when input exceeds their heap),
  reduce, and write output through the HDFS replication pipeline.

Job wall time and the power-meter integral over it are the quantities
Table 8 reports; progress/utilisation/power time series reproduce
Figures 12-17.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import statistics
from typing import TYPE_CHECKING, Dict, List, Optional

from ..cluster import Cluster, hadoop_cluster
from ..core import paperdata as paper
from ..hardware import ServerSpec
from ..sim import Interrupt, RngStreams, Simulation, TimeSeries, backoff_delay
from . import costs as C
from .config import HadoopConfig, default_config
from .hdfs import BlockUnavailable, Hdfs
from .yarn import YarnScheduler

if TYPE_CHECKING:
    from ..workloads import Dataset

#: Concurrent fetch streams per reducer (mapreduce.reduce.shuffle.parallelcopies).
SHUFFLE_PARALLELISM = 5
#: Fraction of a reducer's heap usable for in-memory merge.
MERGE_BUFFER_FRACTION = 0.7


#: Attempts Hadoop makes per task before failing the job
#: (mapreduce.map.maxattempts).  Attempts killed by node loss are not
#: charged against this budget (Hadoop marks them KILLED, not FAILED).
MAX_TASK_ATTEMPTS = 4

#: Hard cap on container launches per task, counting node-loss kills —
#: a backstop against a cluster whose nodes keep dying under the task.
MAX_TASK_LAUNCHES = 25

#: NodeManager heartbeats the ResourceManager waits before expiring a
#: silent node: blacklisting it, reclaiming its containers and
#: re-executing the completed maps whose output died with it.  (The
#: Hadoop default is a 10-minute liveness window; scaled to the
#: simulation's second-scale heartbeats.)
NM_EXPIRY_HEARTBEATS = 2

# LATE-style speculation (resilience only).  Every SPECULATION_CHECK_S
# the monitor flags an attempt as a straggler once its elapsed time
# exceeds LATE_FACTOR x the median completed attempt (the cost-model
# estimate until LATE_MIN_COMPLETED have finished); at most
# SPECULATION_MAX_OUTSTANDING twins run at once, and a twin gives up
# on a container after SPECULATION_GRANT_HEARTBEATS heartbeat rounds
# so speculation never starves first attempts.
SPECULATION_CHECK_S = 2.0
LATE_FACTOR = 1.5
LATE_MIN_COMPLETED = 3
SPECULATION_MAX_OUTSTANDING = 2
SPECULATION_GRANT_HEARTBEATS = 10


class TaskFailed(Exception):
    """A task attempt died (failure injection or fault model)."""


class JobFailed(Exception):
    """A task exhausted its attempts; the whole job is failed."""


class SpeculationWin(Exception):
    """Interrupt cause: a speculative twin finished first; adopt it."""

    def __init__(self, node: str, out_bytes: float):
        super().__init__(f"speculative twin won on {node}")
        self.node = node
        self.out_bytes = out_bytes


class SpeculationKill(Exception):
    """Interrupt cause: the original attempt finished; twin is redundant."""


class _TaskCell:
    """Shared scoreboard entry between a map task and its speculative twin."""

    __slots__ = ("index", "board", "primary", "hdfs_file", "started_at",
                 "node", "in_attempt", "spec_process", "speculated", "done",
                 "won", "winner")

    def __init__(self, index: int, board: "_SpecBoard"):
        self.index = index
        self.board = board
        self.primary = None          # the original task's Process
        self.hdfs_file = None        # input split, once drawn
        self.started_at = None       # sim time the running attempt started
        self.node = None             # node the running attempt occupies
        self.in_attempt = False      # primary is inside _map_attempt
        self.spec_process = None     # live speculative Process, if any
        self.speculated = False      # a twin was ever launched
        self.done = False            # task completed (either attempt)
        self.won = False             # the twin finished first
        self.winner = None           # (node, out_bytes) from the twin


class _SpecBoard:
    """All of a job's task cells plus the completed-attempt durations."""

    def __init__(self):
        self.cells: List[_TaskCell] = []
        self.durations: List[float] = []


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to run one MapReduce job."""

    name: str
    costs: C.JobCosts
    map_tasks: int
    reduce_tasks: int
    map_mem_mb: int
    reduce_mem_mb: int
    dataset: Optional[Dataset] = None
    combiner: bool = False
    #: Reduce-output bytes per reduce-input byte.
    output_ratio: float = 0.05
    #: Probability that any single map attempt dies mid-flight (fault
    #: injection; Hadoop retries the attempt elsewhere).
    map_failure_rate: float = 0.0
    #: Same, for reduce attempts.  Both rates draw from the job's one
    #: ``faults`` RNG stream, so seeds stay reproducible.
    reduce_failure_rate: float = 0.0

    def __post_init__(self):
        if self.map_tasks < 1 or self.reduce_tasks < 0:
            raise ValueError("map_tasks >= 1 and reduce_tasks >= 0 required")
        if self.map_mem_mb < 1 or self.reduce_mem_mb < 1:
            raise ValueError("container memories must be >= 1 MB")
        if not 0 <= self.output_ratio < math.inf:   # NaN fails too
            raise ValueError("output_ratio must be finite and >= 0")
        for rate_field in ("map_failure_rate", "reduce_failure_rate"):
            if not 0 <= getattr(self, rate_field) < 1:
                raise ValueError(f"{rate_field} must be in [0, 1)")

    @property
    def input_bytes(self) -> int:
        return self.dataset.total_bytes if self.dataset else 0

    @property
    def map_output_bytes(self) -> float:
        """Map output volume *before* any combiner."""
        if self.dataset is None:
            return 0.0
        return self.input_bytes * self.dataset.map_output_ratio

    @property
    def shuffle_bytes(self) -> float:
        """Bytes that actually move to reducers (after the combiner)."""
        if self.dataset is None:
            return 0.0
        survival = self.dataset.combine_survival if self.combiner else 1.0
        return self.map_output_bytes * survival


@dataclass(frozen=True)
class JobCounts:
    """Task counts of one job run, as they stood when it ended or failed."""

    maps_done: int
    reduces_done: int
    #: Attempts that died: injected failures and node-loss kills.
    failed_attempts: int
    #: Completed map outputs invalidated by node loss (re-executed).
    lost_map_count: int
    #: Lost map outputs whose re-execution had not finished.
    pending_recoveries: int


@dataclass
class JobTimeline:
    """Time series behind the Figure 12-17 plots."""

    map_progress: TimeSeries = field(
        default_factory=lambda: TimeSeries("map"))
    reduce_progress: TimeSeries = field(
        default_factory=lambda: TimeSeries("reduce"))
    power_w: TimeSeries = field(default_factory=lambda: TimeSeries("power"))
    cpu: TimeSeries = field(default_factory=lambda: TimeSeries("cpu"))
    mem: TimeSeries = field(default_factory=lambda: TimeSeries("mem"))


@dataclass(frozen=True)
class JobReport:
    """Outcome of one job run — one cell of Table 8 plus its timeline."""

    job: str
    platform: str
    slaves: int
    seconds: float
    joules: float
    locality_fraction: float
    timeline: JobTimeline

    @property
    def mean_watts(self) -> float:
        return self.joules / self.seconds

    @property
    def work_per_joule(self) -> float:
        """Jobs per joule — the paper's comparison metric."""
        return 1.0 / self.joules


class JobRunner:
    """Executes MapReduce jobs on a freshly built Hadoop cluster."""

    def __init__(self, platform: str, slaves: int,
                 config: Optional[HadoopConfig] = None,
                 seed: int = 20160901,
                 edison_spec: Optional[ServerSpec] = None,
                 master_spec: Optional[ServerSpec] = None,
                 trace=None,
                 resilience: bool = False,
                 racks: int = 0):
        self.platform = platform
        self.slaves = slaves
        self.config = config if config is not None \
            else default_config(platform)
        self.sim = Simulation(trace=trace)
        self.rng = RngStreams(seed)
        kwargs = {}
        if edison_spec is not None:
            kwargs["edison_spec"] = edison_spec
        if master_spec is not None:
            kwargs["master_spec"] = master_spec
        if racks:
            kwargs["racks"] = racks
        self.cluster: Cluster = hadoop_cluster(self.sim, platform, slaves,
                                               **kwargs)
        self.slave_servers = self.cluster.metered_servers
        self.hdfs = Hdfs(self.sim, self.cluster.topology, self.slave_servers,
                         self.config.block_bytes, self.config.replication,
                         self.rng.stream("hdfs"))
        self.yarn = YarnScheduler(self.sim, self.slave_servers, self.config,
                                  self.rng.stream("yarn"),
                                  master=self.cluster.servers["master"])
        self.meter = self.cluster.attach_meter(interval=1.0)
        self._fault_rng = self.rng.stream("faults")
        #: State of the run in flight under a fault injector — consulted
        #: by the fault listener for node-loss recovery; None otherwise.
        self._active = None
        #: :class:`JobCounts` of the last run, set when it ends or fails.
        self.counts: Optional[JobCounts] = None
        #: Root SpanContext of the running job's causal tree (traced
        #: runs only; set by :meth:`run`).
        self._job_ctx = None
        # Resilience is strictly opt-in: with False, nothing below
        # exists — no extra RNG stream, no ledger, no monitor process —
        # so runs stay bit-identical.
        self.resilience = resilience
        self.resilience_ledger = None
        self._retry_rng = None
        if self.resilience:
            from ..resilience.ledger import ResilienceLedger
            self.resilience_ledger = ResilienceLedger()
            self._retry_rng = self.rng.stream("resilience.retry")
        # Partition-tolerance state (plain containers: no RNG, no
        # processes — a run that never partitions is bit-identical).
        # The phi detector and ledger are armed by repro.durability's
        # attach_job; they stay None otherwise.
        self._phi = None
        self.durability_ledger = None
        self._zombies: Dict[str, List] = {}
        self._partition_expired: set = set()
        self.partition_counters = {"zombies_started": 0,
                                   "duplicate_kills": 0,
                                   "reregistered": 0}
        self._reserve_daemon_memory()

    def _reserve_daemon_memory(self) -> None:
        """Pin OS + datanode + node-manager memory (Section 5.2 survey)."""
        daemon_mb = (paper.S52_EDISON_DAEMON_MEM_MB
                     if self.platform == "edison"
                     else paper.S52_DELL_DAEMON_MEM_MB)
        for server in self.slave_servers:
            server.memory.reserve(daemon_mb * 1e6)
        # The master's steady footprint (excluded from energy accounting).
        master = self.cluster.servers["master"]
        master.memory.reserve(
            paper.S52_MASTER_MEM * master.memory.capacity_bytes)

    # -- helpers -----------------------------------------------------------

    def _cpu(self, node_name: str, mi: float):
        """Process generator: run ``mi`` of job CPU on ``node_name``.

        Work is diced into slices so FIFO vcore queues approximate fair
        sharing across the containers the paper co-schedules per vcore.
        """
        execute = self.cluster.servers[node_name].cpu.execute
        slice_mi = mi / C.CPU_SLICES
        for _ in range(C.CPU_SLICES):
            yield from execute(slice_mi)

    def _task_overhead(self, node_name: str, factor: float):
        """Container launch: wall floor plus JVM start CPU."""
        yield C.TASK_LAUNCH_S
        yield from self._cpu(node_name, C.JVM_START_MI * factor)

    # -- the job ------------------------------------------------------------

    def run(self, spec: JobSpec, sample_interval: float = 1.0,
            deadline_s: float = 100_000.0) -> JobReport:
        """Run ``spec`` to completion and report time, energy, timeline.

        ``deadline_s`` is a watchdog: the periodic samplers keep the
        event calendar alive indefinitely, so a stalled job would spin
        forever; exceeding the deadline raises instead.
        """
        timeline = JobTimeline()
        state = _JobState(self.sim, spec, self.config.slowstart)
        trace = self.sim.trace
        job_start = self.sim.now
        # Root of the job's causal tree: every task attempt, HDFS read
        # and shuffle leg below hangs off this context.
        self._job_ctx = trace.root_context() if trace is not None else None
        if self.sim.faults is not None:
            # Wire failure detection/recovery: node loss blacklists the
            # NodeManager, reclaims its containers and re-executes the
            # completed maps whose output died with it.
            self._active = state
            self.sim.faults.add_listener(self._on_fault_event)
        input_files = self._stage_input(spec)
        done = self.sim.process(self._job(spec, state, input_files),
                                name=f"job-{spec.name}")
        self.meter.start()
        self.sim.process(self._sampler(state, timeline, sample_interval,
                                       done))
        try:
            self.sim.run(until=self.sim.any_of(
                [done, self.sim.timeout(deadline_s)]))
        finally:
            # The job is over: node loss from here on must not re-run
            # its maps or hold containers for it.
            self._active = None
            self.counts = JobCounts(
                state.maps_done, state.reduces_done, state.failed_attempts,
                state.lost_map_count, state.pending_recoveries)
        if not done.processed:
            raise RuntimeError(
                f"job {spec.name!r} still running at the {deadline_s} s "
                f"watchdog deadline: {state.maps_done}/{spec.map_tasks} "
                f"maps, {state.reduces_done}/{spec.reduce_tasks} reduces")
        end = self.sim.now
        self.meter.sample()                      # close the energy integral
        timeline.power_w.record(end, self.meter.series.values[-1])
        joules = self.meter.series.integrate()
        if trace is not None:
            trace.complete("job", job_start, category="task",
                           node="master", ctx=self._job_ctx,
                           job=spec.name)
        return JobReport(
            job=spec.name, platform=self.platform, slaves=self.slaves,
            seconds=end, joules=joules,
            locality_fraction=state.locality_fraction,
            timeline=timeline)

    def _stage_input(self, spec: JobSpec) -> List:
        """Place one HDFS file per map task (the paper's split tuning)."""
        if spec.dataset is None:
            return [None] * spec.map_tasks
        split = max(1, spec.input_bytes // spec.map_tasks)
        return [self.hdfs.stage_file(f"{spec.name}-in-{i:05d}", split)
                for i in range(spec.map_tasks)]

    def _sampler(self, state: "_JobState", timeline: JobTimeline,
                 interval: float, done) -> None:
        trace = self.sim.trace
        while not done.processed:
            now = self.sim.now
            timeline.map_progress.record(
                now, state.maps_done / state.spec.map_tasks)
            reduces = max(1, state.spec.reduce_tasks)
            timeline.reduce_progress.record(now, state.reduces_done / reduces)
            if trace is not None:
                trace.counter("map_progress", timeline.map_progress.values[-1],
                              category="sample")
                trace.counter("reduce_progress",
                              timeline.reduce_progress.values[-1],
                              category="sample")
            if self.meter.series.times:
                timeline.power_w.record(now, self.meter.series.values[-1])
                timeline.cpu.record(now, self.meter.per_component["cpu"].values[-1])
                timeline.mem.record(now, self.meter.per_component["mem"].values[-1])
            yield interval

    # -- administrative suspend/resume (the carbon plane's lever) ----------
    #
    # Deliberate cluster-wide pause, riding the same machinery a crash
    # does but through the injector's *admin* power states: no
    # FaultRecord is written, no downtime accrues, and — crucially —
    # completed map output on the parked nodes' disks stays trusted
    # (the fault listener ignores "admin" edges), so a resumed job only
    # re-runs the attempts that were in flight at the suspend instant.
    # Both methods are dead code without a caller: a run that never
    # suspends is bit-identical to one built before they existed.

    def suspend_workers(self) -> None:
        """Park every slave: blacklist in YARN, then admin power-off.

        Requires an attached :class:`~repro.faults.FaultInjector` (an
        empty-plan one suffices).  Blacklisting first means the
        interrupted attempts' container releases land on an
        already-swept NodeManager (a no-op), exactly as crash expiry
        orders it; new allocation requests then wait for capacity
        instead of churning grants on parked nodes.
        """
        faults = self.sim.faults
        if faults is None:
            raise RuntimeError("suspend_workers needs a FaultInjector "
                               "attached to the cluster")
        for server in self.slave_servers:
            self.yarn.mark_node_down(server.name)
        for server in self.slave_servers:
            faults.admin_power_off(server.name)

    def resume_workers(self, boot_s: float = 0.0):
        """Process generator: wake every parked slave.

        Nodes draw idle power for ``boot_s`` (``admin_booting``), then
        return to service with a fresh container pool — capacity is
        only schedulable once it can actually run work.
        """
        if boot_s < 0:
            raise ValueError("boot_s must be >= 0")
        faults = self.sim.faults
        if faults is None:
            raise RuntimeError("resume_workers needs a FaultInjector "
                               "attached to the cluster")
        for server in self.slave_servers:
            if faults.admin_state(server.name) == "off":
                faults.admin_begin_boot(server.name)
        if boot_s > 0:
            yield boot_s
        for server in self.slave_servers:
            faults.admin_power_on(server.name)
            self.yarn.mark_node_up(server.name)

    def _density(self, mem_mb: int, tasks: int) -> float:
        """Concurrent containers per vcore during one phase."""
        per_node_slots = max(1, self.config.node_task_mem_mb // mem_mb)
        per_node_tasks = math.ceil(tasks / len(self.slave_servers))
        return min(per_node_slots, per_node_tasks) / self.config.node_vcores

    # -- failure detection and recovery -----------------------------------

    def _on_fault_event(self, event: str, node: str, kind: str) -> None:
        """Fault-injector listener: react to node down/up edges."""
        from ..faults.models import PARTITION_KINDS
        if kind in PARTITION_KINDS:
            self._on_partition_event(event, node, kind)
            return
        if kind not in ("crash", "power"):
            return
        if event == "up":
            self.yarn.mark_node_up(node)
            return
        if node not in self.yarn.nodes or self._active is None:
            return   # the master, a non-slave or no job in flight
        # Completed map output lived on the node's local disk: gone.
        # Account for it now (so shuffles stop trusting the node) and
        # re-execute once the ResourceManager expires the NodeManager.
        state = self._active
        self.sim.process(self._expire(state, node, kind,
                                      lost=state.lose_node(node)),
                         name=f"expire-{node}")

    def _expire(self, state: "_JobState", node: str, kind: str,
                lost: Optional[tuple] = None):
        """RM-side process: expire a silent NodeManager, re-run its maps.

        A crashed node's map output was written off at the crash
        instant (``lost``, from :meth:`_JobState.lose_node`).  A
        partitioned node is alive, so it is convicted first (phi
        detector when armed, else the fixed liveness window) and only
        then loses its output and its bound attempts.
        """
        from ..faults.models import FaultCause
        faults = self.sim.faults
        if lost is None and self._phi is not None:
            suspected = yield from self._phi.wait_suspect(
                node, healthy=lambda: (faults.is_reachable(node)
                                       and faults.is_up(node)))
            if not suspected:
                return
        else:
            yield NM_EXPIRY_HEARTBEATS * self.config.heartbeat_s
        if self._active is None:
            return   # the job ended inside the window
        if lost is None:
            if faults.is_reachable(node):
                return   # healed inside the liveness window; never expired
            self.yarn.mark_node_down(node)
            self._partition_expired.add(node)
            # This side stops trusting the node's completed map output
            # (it is unreachable for shuffle) and re-executes on the
            # majority.
            lost = state.lose_node(node)
            for process in faults.bound_processes(node):
                if process.is_alive:
                    process.interrupt(FaultCause(kind, node))
        elif not faults.is_up(node):
            # Still silent after the liveness window: blacklist it.  (If
            # it rebooted in time, its containers are gone regardless.)
            self.yarn.mark_node_down(node)
        lost_files, counts = lost
        for hdfs_file in lost_files:
            self.sim.process(
                self._task(state.spec, state, "map", state.map_factor,
                           recovery_from=node, fixed_file=hdfs_file,
                           counts=counts),
                name=f"remap-{node}")

    # -- split-brain: partitions and their reconciliation ------------------
    #
    # A partitioned node is *alive*: its attempts keep executing on the
    # far side while the ResourceManager's side hears only silence.
    # Nothing happens at cut time — expiry (fixed heartbeats, or the
    # phi-accrual detector when armed) decides when this side gives up,
    # and only then does the majority blacklist the node, invalidate
    # its map output and re-execute.  The original attempt keeps
    # burning the minority node's CPU as a *zombie* duplicate until the
    # heal-time reconciliation kills it and re-registers the survivor —
    # the work was never double-counted because zombies never report.

    def _on_partition_event(self, event: str, node: str,
                            kind: str) -> None:
        from ..faults.models import FaultCause
        if node not in self.yarn.nodes:
            return
        if event == "down":
            if self._active is not None:
                self.sim.process(self._expire(self._active, node, kind),
                                 name=f"expire-{node}")
            return
        # Heal: kill duplicate attempts, then re-register the survivor.
        for process, started in self._zombies.pop(node, ()):
            if process.is_alive:
                process.interrupt(FaultCause("reconcile", node))
                self.partition_counters["duplicate_kills"] += 1
                self._charge_split_brain(node, self.sim.now - started)
        if node in self._partition_expired:
            self._partition_expired.discard(node)
            self.yarn.mark_node_up(node)
            self.partition_counters["reregistered"] += 1

    def _spawn_zombie(self, node: str) -> None:
        """The partitioned side's copy of an interrupted attempt."""
        self.partition_counters["zombies_started"] += 1
        process = self.sim.process(self._zombie_attempt(node),
                                   name=f"zombie-{node}")
        self._zombies.setdefault(node, []).append((process, self.sim.now))

    def _zombie_attempt(self, node: str):
        """Burn the minority node's CPU until reconciliation kills us.

        Models the orphaned container: it finishes its split, fails to
        report to an AM it cannot reach, and retries — so the node
        stays busy (and its power draw honest) for the whole partition.
        Zombies never touch job state: no output recorded, no counter
        advanced, hence no double-counted work.
        """
        faults = self.sim.faults
        process = self.sim.active_process
        faults.bind(node, process)
        try:
            while True:
                yield from self._cpu(node, C.JVM_START_MI)
        except Interrupt:
            return
        finally:
            faults.unbind(node, process)

    def _charge_split_brain(self, node: str, seconds: float) -> None:
        if self.durability_ledger is None:
            return
        watts = self.cluster.servers[node].marginal_vcore_watts()
        self.durability_ledger.charge("split_brain", node, seconds, watts)

    def _job(self, spec: JobSpec, state: "_JobState",
             input_files: List):
        map_factor = C.effective_factor(
            spec.costs, self.platform,
            self._density(spec.map_mem_mb, spec.map_tasks))
        reduce_factor = C.effective_factor(
            spec.costs, self.platform,
            self._density(spec.reduce_mem_mb, max(1, spec.reduce_tasks)))
        state.map_factor = map_factor
        # Application-master spin-up + job initialisation lead.
        yield C.ALLOC_LEAD_S[self.platform]
        pool = _InputPool(input_files, self.rng.stream("am"))
        if self.resilience:
            board = _SpecBoard()
            maps = []
            for i in range(spec.map_tasks):
                cell = _TaskCell(i, board)
                proc = self.sim.process(
                    self._task(spec, state, "map", map_factor, pool=pool,
                               cell=cell),
                    name=f"map-{i}")
                cell.primary = proc
                board.cells.append(cell)
                maps.append(proc)
            self.sim.process(
                self._speculation_monitor(spec, state, board, map_factor),
                name="speculation-monitor")
        else:
            maps = [self.sim.process(
                self._task(spec, state, "map", map_factor, pool=pool),
                name=f"map-{i}") for i in range(spec.map_tasks)]
        reduces = []
        if spec.reduce_tasks > 0:
            yield state.slowstart_event
            # Launch at most half the reduce slots while maps still run,
            # as Hadoop's headroom limit does — otherwise reducers (which
            # block on map completion) can hold every container while the
            # map tail starves: a scheduling deadlock.
            slots = len(self.slave_servers) * max(
                1, self.config.node_task_mem_mb // spec.reduce_mem_mb)
            early = min(spec.reduce_tasks, max(1, slots // 2))
            reduces = [self.sim.process(
                self._task(spec, state, "reduce", reduce_factor),
                name=f"red-{i}") for i in range(early)]
        yield self.sim.all_of(maps)
        if self.sim.faults is not None:
            # Node loss may have re-queued completed maps; the map phase
            # only ends once re-execution restores every lost output.
            yield from state.wait_maps_complete(self.sim)
        state.all_maps_done.succeed()
        if spec.reduce_tasks > 0:
            reduces.extend(self.sim.process(
                self._task(spec, state, "reduce", reduce_factor),
                name=f"red-{i}") for i in range(early, spec.reduce_tasks))
        if reduces:
            yield self.sim.all_of(reduces)

    # -- tasks: one attempt lifecycle for maps and reduces -----------------

    def _task(self, spec: JobSpec, state: "_JobState", kind: str,
              factor: float, pool: Optional["_InputPool"] = None,
              recovery_from: Optional[str] = None, fixed_file=None,
              counts: bool = True, cell: Optional[_TaskCell] = None):
        """One map or reduce task: allocate, attempt, retry; record it.

        ``kind`` is ``"map"`` or ``"reduce"``; both share this attempt
        lifecycle.  A map draws its input split from ``pool`` at its
        first live grant.  With ``recovery_from`` set it is instead a
        re-execution of a map whose completed output died with node
        ``recovery_from``; the input split is ``fixed_file`` and
        completion settles the pending recovery instead of advancing
        the original map counter (unless ``counts``: the phase was still
        open when the node died, so the counter was decremented and
        must recover).

        With a ``cell`` (resilience armed), a map publishes its
        attempt progress there and a speculative twin may race it: the
        first finisher wins, the loser is killed and its joules charged
        to the resilience ledger.
        """
        is_map = kind == "map"
        mem_mb = spec.map_mem_mb if is_map else spec.reduce_mem_mb
        hdfs_file = fixed_file
        faults = self.sim.faults
        failures = 0
        launches = 0
        win_node = None
        out_bytes = 0.0
        while True:
            launches += 1
            if launches > MAX_TASK_LAUNCHES:
                raise JobFailed(
                    f"{spec.name}: a {kind} task was relaunched "
                    f"{MAX_TASK_LAUNCHES} times without completing "
                    f"(nodes keep failing under it)")
            # Containers are requested anonymously and the application
            # master assigns whichever pending split is local to the
            # node that answered — how Hadoop's AM achieves its ~95 %
            # data-locality, and why the paper sees it on both clusters.
            grant = yield from self.yarn.allocate(mem_mb)
            if faults is not None and not faults.is_up(grant.node):
                # Granted on a node that died before the NodeManager
                # expiry window closed; give it back and re-request.
                self.yarn.release(grant)
                continue
            if cell is not None and cell.won:
                # The speculative twin finished while this side waited
                # for a container: adopt its output, skip the attempt.
                self.yarn.release(grant)
                win_node, out_bytes = cell.winner
                break
            # Draw the input split at the first grant that survives the
            # liveness check — not the first launch: a grant churned back
            # because its node was dead must not cost the task its split.
            if pool is not None:
                hdfs_file, local = pool.take(grant.node)
                pool = None
                if hdfs_file is not None:
                    state.placed_maps += 1
                    if local:
                        state.local_maps += 1
                if cell is not None:
                    cell.hdfs_file = hdfs_file
            attempt_start = self.sim.now
            process = self.sim.active_process
            trace = self.sim.trace
            attempt_ctx = trace.child_context(self._job_ctx) \
                if trace is not None else None
            if faults is not None:
                faults.bind(grant.node, process)
            if cell is not None:
                cell.started_at = attempt_start
                cell.node = grant.node
                cell.in_attempt = True
            try:
                if is_map:
                    out_bytes = yield from self._map_attempt(
                        spec, grant.node, hdfs_file, factor, ctx=attempt_ctx)
                else:
                    yield from self._reduce_attempt(spec, state, grant.node,
                                                    factor, ctx=attempt_ctx)
            except TaskFailed:
                state.failed_attempts += 1
                self._trace_attempt(kind, grant.node, attempt_start,
                                    launches - 1, ok=False, ctx=attempt_ctx)
                failures += 1
                if failures >= MAX_TASK_ATTEMPTS:
                    raise JobFailed(
                        f"{spec.name}: a {kind} task died "
                        f"{MAX_TASK_ATTEMPTS} times")
                yield from self._retry_backoff(failures)
                continue
            except Interrupt as exc:
                cause = exc.cause
                if isinstance(cause, SpeculationWin):
                    # Lost the race: the twin's output stands, this
                    # attempt's partial work is the price of insurance.
                    self._charge_speculation(grant.node,
                                             self.sim.now - attempt_start)
                    self._trace_attempt(kind, grant.node, attempt_start,
                                        launches - 1, ok=False, killed=True,
                                        lost_race=True, ctx=attempt_ctx)
                    win_node, out_bytes = cause.node, cause.out_bytes
                    break
                # The node died under the attempt; the retry allocates
                # on a surviving node and is not charged as a failure
                # (a reduce re-runs whole, shuffle included).  A map's
                # *partition* kill is different: the node is alive on
                # the far side, so the orphaned attempt lives on as a
                # zombie duplicate until heal-time reconciliation.
                from ..faults.models import FaultCause, PARTITION_KINDS
                if (is_map and isinstance(cause, FaultCause)
                        and cause.kind in PARTITION_KINDS):
                    self._spawn_zombie(cause.node)
                state.failed_attempts += 1
                self._trace_attempt(kind, grant.node, attempt_start,
                                    launches - 1, ok=False, killed=True,
                                    ctx=attempt_ctx)
                continue
            except BlockUnavailable as exc:
                # Every replica of an input block is gone: no retry can
                # help, fail the whole job cleanly.
                raise JobFailed(f"{spec.name}: {exc}") from exc
            finally:
                if cell is not None:
                    cell.in_attempt = False
                    cell.started_at = None
                if faults is not None:
                    faults.unbind(grant.node, process)
                self.yarn.release(grant)
            if not is_map:
                self._trace_attempt(kind, grant.node, attempt_start,
                                    launches - 1, ok=True, ctx=attempt_ctx)
                state.reduces_done += 1
                return
            self._trace_attempt(kind, grant.node, attempt_start,
                                launches - 1, ok=True, out_bytes=out_bytes,
                                ctx=attempt_ctx)
            if cell is not None:
                cell.board.durations.append(self.sim.now - attempt_start)
            win_node = grant.node
            break
        if cell is not None:
            cell.done = True
            if (not cell.won and cell.spec_process is not None
                    and cell.spec_process.is_alive):
                # First-finisher-wins: the twin is now redundant.
                cell.spec_process.interrupt(SpeculationKill())
        state.record_map_output(win_node, out_bytes)
        state.completed_map(win_node, hdfs_file)
        if recovery_from is None:
            state.map_finished(self.sim)
        else:
            state.recovery_completed(self.sim, recovery_from,
                                     win_node, out_bytes, counts)

    def _map_attempt(self, spec: JobSpec, node: str, hdfs_file,
                     factor: float, ctx=None):
        """One attempt of one map task on ``node``; may raise TaskFailed.

        ``ctx`` is the attempt's :class:`~repro.trace.SpanContext`; the
        HDFS input read is emitted as its child span.
        """
        yield from self._task_overhead(node, factor)
        input_bytes = hdfs_file.size_bytes if hdfs_file else 0
        if hdfs_file is not None:
            read_start = self.sim.now
            for block in hdfs_file.blocks:
                yield from self.hdfs.read_block(node, block)
            trace = self.sim.trace
            if trace is not None:
                trace.complete("hdfs-read", read_start, category="task",
                               node=node,
                               ctx=trace.child_context(ctx)
                               if ctx is not None else None,
                               nbytes=input_bytes)
        if (spec.map_failure_rate > 0
                and self._fault_rng.random() < spec.map_failure_rate):
            # The attempt dies after consuming real resources.
            raise TaskFailed(f"injected failure on {node}")
        out_bytes = (input_bytes * spec.dataset.map_output_ratio
                     if spec.dataset else 0.0)
        cpu_mi = (spec.costs.map_fixed_mi
                  + spec.costs.map_mi_per_mb * input_bytes / 1e6
                  + spec.costs.sort_mi_per_mb * out_bytes / 1e6) * factor
        yield from self._cpu(node, cpu_mi)
        if spec.combiner and spec.dataset:
            out_bytes *= spec.dataset.combine_survival
        if out_bytes > 0:
            server = self.cluster.servers[node]
            yield from server.storage.write(out_bytes, buffered=True)
        yield C.TASK_COMMIT_S
        yield from self.yarn.master_commit()
        return out_bytes

    # -- speculative execution (LATE) --------------------------------------

    def _retry_backoff(self, failures: int):
        """Process generator: seeded backoff before a failed attempt retries.

        A no-op without resilience — the historical behaviour is an
        immediate re-request on the next heartbeat.
        """
        if self._retry_rng is None:
            return
        self.resilience_ledger.count("retries")
        yield backoff_delay(self._retry_rng, failures - 1)

    def _charge_speculation(self, node: str, seconds: float) -> None:
        """Bill a killed attempt's partial work to the resilience ledger."""
        ledger = self.resilience_ledger
        ledger.charge("speculation", node, seconds,
                      ledger.marginal_vcore_watts(self.cluster.servers[node]))
        ledger.count("speculative_kills")

    def _estimate_map_s(self, spec: JobSpec, factor: float) -> float:
        """Cost-model anchor for the straggler baseline.

        Used until enough attempts have completed for the running
        median to be trusted; deliberately coarse (CPU at the loaded
        vcore rate plus the launch/commit floors — I/O omitted), since
        it only has to be the right order of magnitude.
        """
        split = spec.input_bytes / spec.map_tasks if spec.dataset else 0.0
        out = (split * spec.dataset.map_output_ratio if spec.dataset else 0.0)
        mi = (spec.costs.map_fixed_mi
              + spec.costs.map_mi_per_mb * split / 1e6
              + spec.costs.sort_mi_per_mb * out / 1e6
              + C.JVM_START_MI) * factor
        # Median per-slave rate, not slave 0's: on a heterogeneous
        # Edison+Dell pool anchoring to whichever platform happens to
        # sort first would misjudge every attempt on the other one
        # (a Dell-anchored estimate flags all Edison attempts as
        # stragglers).  The median rate stands in for the median
        # completed-attempt duration this estimate replaces; on a
        # homogeneous pool it is bit-identical to the old anchor.
        rate = statistics.median(
            server.cpu.spec.vcore_dmips for server in self.slave_servers)
        return C.TASK_LAUNCH_S + C.TASK_COMMIT_S + mi / rate

    def _speculation_monitor(self, spec: JobSpec, state: "_JobState",
                             board: _SpecBoard, factor: float):
        """Job-wide straggler scan, LATE-style.

        Every :data:`SPECULATION_CHECK_S` the monitor compares each
        running attempt's elapsed time against :data:`LATE_FACTOR` times
        the median completed-attempt duration (cost-model estimate until
        :data:`LATE_MIN_COMPLETED` attempts exist) and launches capped
        speculative twins for the laggards.
        """
        estimate = self._estimate_map_s(spec, factor)
        while not state.all_maps_done.triggered:
            yield SPECULATION_CHECK_S
            if state.all_maps_done.triggered:
                return
            if len(board.durations) >= LATE_MIN_COMPLETED:
                baseline = statistics.median(board.durations)
            else:
                baseline = estimate
            threshold = LATE_FACTOR * baseline
            outstanding = sum(
                1 for c in board.cells
                if c.spec_process is not None and c.spec_process.is_alive)
            now = self.sim.now
            # LATE launches against the *worst* stragglers first: with a
            # capped twin pool, spending a slot on a 2x laggard while a
            # 10x one waits forfeits most of the tail saving.  Elapsed
            # time stands in for estimated time-to-end (same input split
            # size, so longer-running means further from done); ties keep
            # task-index order, which keeps the scan deterministic.
            laggards = sorted(
                (c for c in board.cells
                 if not (c.done or c.speculated or c.started_at is None)
                 and now - c.started_at > threshold),
                key=lambda c: now - c.started_at, reverse=True)
            for cell in laggards:
                if outstanding >= SPECULATION_MAX_OUTSTANDING:
                    break
                cell.speculated = True
                outstanding += 1
                self.resilience_ledger.count("speculative_launches")
                cell.spec_process = self.sim.process(
                    self._speculative_map(spec, cell, factor),
                    name=f"spec-map-{cell.index}")
                if self.sim.trace is not None:
                    self.sim.trace.instant(
                        "speculation.launch", category="resilience",
                        task=cell.index, elapsed_s=now - cell.started_at,
                        baseline_s=baseline)

    def _speculative_map(self, spec: JobSpec, cell: _TaskCell,
                         factor: float):
        """A speculative twin of one straggling map attempt.

        Races the original: whoever finishes first wins, the loser is
        killed and its joules land on the resilience ledger.  The twin
        is deliberately second-class — its container request gives up
        after a bounded number of heartbeats so speculation never
        starves first attempts on a full cluster.
        """
        ledger = self.resilience_ledger
        faults = self.sim.faults
        avoid = (cell.node,) if cell.node is not None else ()
        try:
            grant = yield from self.yarn.allocate(
                spec.map_mem_mb,
                max_heartbeats=SPECULATION_GRANT_HEARTBEATS,
                avoid=avoid)
        except Interrupt:
            return                       # killed while still queueing: free
        if grant is None:
            ledger.count("speculative_abandoned")
            # The cluster was full; let the monitor try again later,
            # when the map tail has freed slots.
            cell.speculated = False
            return
        if cell.done or (faults is not None and not faults.is_up(grant.node)):
            self.yarn.release(grant)
            if cell.done:
                ledger.count("speculative_abandoned")
            return
        start = self.sim.now
        process = self.sim.active_process
        trace = self.sim.trace
        attempt_ctx = trace.child_context(self._job_ctx) \
            if trace is not None else None
        if faults is not None:
            faults.bind(grant.node, process)
        try:
            out_bytes = yield from self._map_attempt(
                spec, grant.node, cell.hdfs_file, factor, ctx=attempt_ctx)
        except (TaskFailed, Interrupt, BlockUnavailable):
            # Killed by the winner, lost its node, or died on its own:
            # either way the partial work is pure overhead.
            self._charge_speculation(grant.node, self.sim.now - start)
            self._trace_attempt("map", grant.node, start, 0, ok=False,
                                speculative=True, ctx=attempt_ctx)
            return
        finally:
            if faults is not None:
                faults.unbind(grant.node, process)
            self.yarn.release(grant)
        if cell.done:
            # Photo finish, original side already committed: duplicate.
            self._charge_speculation(grant.node, self.sim.now - start)
            self._trace_attempt("map", grant.node, start, 0, ok=False,
                                speculative=True, ctx=attempt_ctx)
            return
        cell.board.durations.append(self.sim.now - start)
        cell.won = True
        cell.winner = (grant.node, out_bytes)
        ledger.count("speculative_wins")
        self._trace_attempt("map", grant.node, start, 0, ok=True,
                            speculative=True, out_bytes=out_bytes,
                            ctx=attempt_ctx)
        if cell.in_attempt:
            cell.primary.interrupt(SpeculationWin(grant.node, out_bytes))

    # -- reduce side ----------------------------------------------------------

    def _reduce_attempt(self, spec: JobSpec, state: "_JobState",
                        node: str, factor: float, ctx=None):
        """One attempt of one reduce task on ``node``.

        ``ctx`` is the attempt's :class:`~repro.trace.SpanContext`; the
        shuffle leg is emitted as its child span.
        """
        yield from self._task_overhead(node, factor)
        # Shuffle can begin once slowstart fired (we are running), but
        # the tail of map output only exists when all maps are done.
        yield state.all_maps_done
        shuffle_start = self.sim.now
        input_bytes = yield from self._shuffle(spec, state, node)
        trace = self.sim.trace
        if trace is not None:
            trace.complete("shuffle", shuffle_start,
                           category="task", node=node,
                           ctx=trace.child_context(ctx)
                           if ctx is not None else None,
                           nbytes=input_bytes)
        if (spec.reduce_failure_rate > 0
                and self._fault_rng.random() < spec.reduce_failure_rate):
            # The attempt dies after shuffling real bytes — the costly
            # place for a reducer to die, as on the real cluster.
            raise TaskFailed(f"injected failure on {node}")
        buffer_bytes = spec.reduce_mem_mb * 1e6 * MERGE_BUFFER_FRACTION
        server = self.cluster.servers[node]
        if input_bytes > buffer_bytes:
            # On-disk merge round: spill and re-read what overflows.
            overflow = input_bytes - buffer_bytes
            yield from server.storage.write(overflow, buffered=True)
            yield from server.storage.read(overflow, buffered=True)
        yield from self._cpu(
            node,
            spec.costs.reduce_mi_per_mb * input_bytes / 1e6 * factor)
        out = input_bytes * spec.output_ratio
        if out > 0:
            yield from self.hdfs.write(node, out)
        yield C.TASK_COMMIT_S
        yield from self.yarn.master_commit()

    def _trace_attempt(self, kind: str, node: str, start: float,
                       attempt: int, ok: bool, ctx=None, **attrs) -> None:
        """Emit one task-attempt lifecycle span (no-op when untraced)."""
        if self.sim.trace is not None:
            self.sim.trace.complete(f"{kind}-attempt", start,
                                    category="task", node=node, ctx=ctx,
                                    attempt=attempt, ok=ok, **attrs)

    def _shuffle(self, spec: JobSpec, state: "_JobState",
                 node: str) -> float:
        """Fetch this reducer's partition from every map-output node."""
        faults = self.sim.faults
        if faults is not None:
            # Never snapshot the output ledger while lost maps are being
            # re-executed — wait until it is whole again.
            yield from state.wait_recoveries(self.sim)
        snapshot_t = self.sim.now
        share = 1.0 / spec.reduce_tasks
        fetches = [(source, nbytes * share)
                   for source, nbytes in state.map_output_by_node.items()
                   if nbytes > 0]
        total = 0.0
        for start in range(0, len(fetches), SHUFFLE_PARALLELISM):
            batch = fetches[start:start + SHUFFLE_PARALLELISM]
            if len(batch) == 1:
                # A lone leg needs no concurrency: run it inline and
                # skip the process-spawn + AllOf event chain.
                source, nbytes = batch[0]
                total += nbytes
                yield from self._fetch(source, node, nbytes)
                continue
            legs = []
            for source, nbytes in batch:
                total += nbytes
                legs.append(self.sim.process(
                    self._fetch(source, node, nbytes)))
            yield self.sim.all_of(legs)
        if faults is not None:
            # A source that started an outage during the window served
            # suspect bytes: its local map output died with it, even if
            # it has already rebooted.  Re-fetch those partitions from
            # the re-executed maps' new homes.  ``total`` is unchanged —
            # the fresh bytes replace the already-counted partition.
            for source, _ in fetches:
                if not faults.went_down_since(source, snapshot_t):
                    continue
                yield from state.wait_recoveries(self.sim)
                for new_node, out_bytes in state.recovered_from.get(
                        source, ()):
                    yield from self._fetch(new_node, node,
                                           out_bytes * share)
        return total

    def _fetch(self, source: str, dest: str, nbytes: float):
        server = self.cluster.servers[source]
        yield from server.storage.read(nbytes, buffered=True)
        if source != dest:
            yield self.cluster.topology.network.start_flow(
                self.cluster.topology.path(source, dest), nbytes)


class _InputPool:
    """Pending map inputs, handed out locality-first to granted nodes.

    A small fraction of assignments miss locality even when a local
    split exists — grant/heartbeat races and straggler rescheduling in
    the real AM — which is why the paper reports ~95 % rather than
    100 % data-local maps on both clusters.
    """

    MISS_PROBABILITY = 1.0 - paper.S52_DATA_LOCAL_FRACTION

    def __init__(self, input_files: List, rng):
        self.pending: List = list(input_files)
        self.rng = rng

    def take(self, node: str):
        """Pop a pending input, preferring one with a replica on ``node``.

        Returns ``(hdfs_file, was_local)``; ``(None, False)`` for jobs
        without input data (pi).
        """
        if not self.pending:
            raise RuntimeError("more map workers than pending inputs")
        if self.pending[0] is None:
            return self.pending.pop(), False
        if self.rng.random() >= self.MISS_PROBABILITY:
            for index, hdfs_file in enumerate(self.pending):
                replicas = hdfs_file.blocks[0].replicas \
                    if hdfs_file.blocks else ()
                if node in replicas:
                    self.pending.pop(index)
                    return hdfs_file, True
        hdfs_file = self.pending.pop(0)
        replicas = hdfs_file.blocks[0].replicas if hdfs_file.blocks else ()
        return hdfs_file, node in replicas


class _JobState:
    """Mutable bookkeeping shared by a job's tasks."""

    def __init__(self, sim: Simulation, spec: JobSpec,
                 slowstart: float):
        self.spec = spec
        self.maps_done = 0
        self.reduces_done = 0
        self.map_output_by_node: Dict[str, float] = {}
        self.slowstart_event = sim.event()
        self.all_maps_done = sim.event()
        self.local_maps = 0
        self.placed_maps = 0
        self.failed_attempts = 0
        self._slowstart_at = max(1, round(slowstart * spec.map_tasks))
        # -- fault bookkeeping (all dormant without an injector) --------
        #: node -> input splits whose map completed there (output on its
        #: local disk; lost wholesale if the node goes down).
        self.completed_maps: Dict[str, List] = {}
        #: dead node -> [(new_node, out_bytes)] of re-executed maps.
        self.recovered_from: Dict[str, List] = {}
        #: Lost map outputs whose re-execution has not finished yet.
        self.pending_recoveries = 0
        #: Total completed maps invalidated by node loss (reporting).
        self.lost_map_count = 0
        self.map_factor = 1.0
        self._recovery_event = None

    @property
    def locality_fraction(self) -> float:
        if self.placed_maps == 0:
            return 1.0   # no placement-sensitive work (e.g. pi)
        return self.local_maps / self.placed_maps

    def record_map_output(self, node: str, nbytes: float) -> None:
        self.map_output_by_node[node] = (
            self.map_output_by_node.get(node, 0.0) + nbytes)

    def map_finished(self, sim: Simulation) -> None:
        self.maps_done += 1
        if (self.maps_done >= self._slowstart_at
                and not self.slowstart_event.triggered):
            self.slowstart_event.succeed()

    # -- node-loss recovery (only reached with a fault injector) ---------

    def completed_map(self, node: str, hdfs_file) -> None:
        """Remember which split produced output on ``node``'s disk."""
        self.completed_maps.setdefault(node, []).append(hdfs_file)

    def lose_node(self, node: str):
        """Invalidate every completed map output stored on ``node``.

        Called synchronously at the crash instant so no reducer
        snapshots a ledger that still trusts the dead node.  Returns
        ``(lost_splits, counts)``: the input splits to re-execute, and
        whether their completions should re-advance ``maps_done``
        (False once the map phase had already closed — the barrier
        event has fired and must not regress).
        """
        lost = self.completed_maps.pop(node, [])
        self.map_output_by_node.pop(node, None)
        counts = not self.all_maps_done.triggered
        if lost:
            # Stale recovery homes for an earlier incarnation of this
            # node are irrelevant now — it has no output either way.
            self.recovered_from.pop(node, None)
            self.lost_map_count += len(lost)
            self.pending_recoveries += len(lost)
            if counts:
                self.maps_done -= len(lost)
        return lost, counts

    def recovery_completed(self, sim: Simulation, old_node: str,
                           new_node: str, out_bytes: float,
                           counts: bool) -> None:
        """A lost map re-ran on ``new_node``; settle the books."""
        self.recovered_from.setdefault(old_node, []).append(
            (new_node, out_bytes))
        self.pending_recoveries -= 1
        if counts:
            self.map_finished(sim)
        self._fire_recovery_event()

    def _arm_recovery_event(self, sim: Simulation):
        if self._recovery_event is None or self._recovery_event.triggered:
            self._recovery_event = sim.event()
        return self._recovery_event

    def _fire_recovery_event(self) -> None:
        event = self._recovery_event
        if event is not None and not event.triggered:
            event.succeed()

    def wait_maps_complete(self, sim: Simulation):
        """Process generator: block until every map output exists again."""
        while self.maps_done < self.spec.map_tasks:
            yield self._arm_recovery_event(sim)

    def wait_recoveries(self, sim: Simulation):
        """Process generator: block while any re-execution is pending."""
        while self.pending_recoveries > 0:
            yield self._arm_recovery_event(sim)


def run_job(platform: str, slaves: int, spec: JobSpec,
            config: Optional[HadoopConfig] = None, seed: int = 20160901,
            edison_spec: Optional[ServerSpec] = None,
            master_spec: Optional[ServerSpec] = None,
            deadline_s: float = 100_000.0, trace=None,
            resilience: bool = False) -> JobReport:
    """Convenience wrapper: build a fresh cluster and run one job."""
    runner = JobRunner(platform, slaves, config=config, seed=seed,
                       edison_spec=edison_spec, master_spec=master_spec,
                       trace=trace, resilience=resilience)
    return runner.run(spec, deadline_s=deadline_s)
