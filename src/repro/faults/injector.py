"""The fault injector: runs a :class:`FaultPlan` against a live cluster.

A :class:`FaultInjector` attaches to a cluster's simulation as
``sim.faults`` (the same pattern as ``sim.trace``) and spawns one
simulation process per planned fault.  Crashing a node interrupts every
process bound to it through the kernel's
:class:`~repro.sim.Interrupt` (with a :class:`FaultCause` attached),
flips the node's status so YARN, HDFS, the web load balancer and the
power meter all see it down, and restores everything on repair.

The hard guarantee: an injector holding an *empty* plan spawns **zero**
processes and every status query is a pure flag lookup, so an attached
empty injector leaves runs bit-identical — no extra events on the
calendar, no extra RNG draws, no perturbed heap tie-breaks.  The
no-fault invariance tests in ``tests/test_faults.py`` hold this the
same way ``tests/test_trace.py`` holds it for tracing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..sim import RngStreams
from .models import Fault, FaultCause, FaultPlan, PARTITION_KINDS

#: Listener signature: ``fn(event, node, kind)`` with event "down"/"up".
FaultListener = Callable[[str, str, str], None]


@dataclass
class FaultRecord:
    """One injected fault occurrence, for the availability report."""

    kind: str
    node: str
    start: float
    #: Repair time; ``None`` while the outage is open (or permanent).
    end: Optional[float] = None
    #: Every node the fault touched (partition/switch_down sever whole
    #: sets; ``node`` alone then holds the rack/cut label).
    nodes: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def covers(self, name: str) -> bool:
        """Did this fault affect server ``name``?"""
        return name == self.node or name in self.nodes


class _NodeStatus:
    """Mutable per-node fault state (tokens allow overlapping faults).

    Administrative power state (``admin_off``/``admin_booting``) is kept
    apart from the fault tokens: an autoscaler parking a node is not an
    outage, so it never creates a :class:`FaultRecord` and never counts
    toward downtime — but the node is just as unreachable, so ``up``
    folds both in and every consumer (LB health checks, scrapers, the
    power meter) sees one coherent answer.
    """

    __slots__ = ("down_tokens", "down_since", "last_down_at",
                 "downtime_s", "disk_failed", "admin_off", "admin_booting",
                 "unreachable_tokens", "unreachable_since", "unreachable_s")

    def __init__(self):
        self.down_tokens = 0
        self.down_since: Optional[float] = None
        self.last_down_at = -math.inf
        self.downtime_s = 0.0
        self.disk_failed = False
        self.admin_off = False
        self.admin_booting = False
        # Partition state is tracked apart from the down tokens: an
        # unreachable node is *alive* (it burns power, its processes
        # keep running) so it accrues unreachable-seconds, never
        # downtime — the accounting distinction the split-brain
        # acceptance check leans on.
        self.unreachable_tokens = 0
        self.unreachable_since: Optional[float] = None
        self.unreachable_s = 0.0

    @property
    def up(self) -> bool:
        return (self.down_tokens == 0 and not self.admin_off
                and not self.admin_booting)


class FaultInjector:
    """Executes a fault plan; the cluster layers consult it for status."""

    def __init__(self, cluster, plan: Optional[FaultPlan] = None,
                 seed: int = 16180339, detection_s: float = 0.25):
        """Attach to ``cluster`` and schedule every fault in ``plan``.

        ``detection_s`` is how long a crash stays invisible to health
        checks (:meth:`detected_down`) — the web tier's load balancer
        keeps dispatching to a dead node for that long, exactly as a
        real health-check interval would.
        """
        if detection_s < 0:
            raise ValueError("detection_s must be >= 0")
        sim = cluster.sim
        if sim.faults is not None:
            raise RuntimeError("this simulation already has a FaultInjector")
        self.plan = plan if plan is not None else FaultPlan()
        self.plan.check_against(cluster.servers)
        for rack in self.plan.racks():
            if not cluster.topology.rack_members(rack):
                raise ValueError(
                    f"fault plan severs unknown/empty rack {rack!r}; "
                    f"cluster racks: {cluster.topology.racks()}")
        self.cluster = cluster
        self.sim = sim
        self.detection_s = detection_s
        self.status: Dict[str, _NodeStatus] = {
            name: _NodeStatus() for name in cluster.servers}
        #: Bumped by every write to a node's fault flags, so a reader
        #: (the HDFS block census) can reuse what it derived from them.
        self.status_version = 0
        # Insertion-ordered (dict, not set): victims are interrupted in
        # bind order, keeping chaos runs deterministic per seed.
        self._bound: Dict[str, Dict] = {name: {} for name in
                                        cluster.servers}
        self._listeners: List[FaultListener] = []
        self._nic_base: Dict[str, tuple] = {}
        self._nic_factors: Dict[str, List[float]] = {}
        self._throttle_factors: Dict[str, List[float]] = {}
        self.records: List[FaultRecord] = []
        self._rng = RngStreams(seed)
        sim.faults = self
        for i, fault in enumerate(self.plan.faults):
            sim.process(self._run_fault(fault), name=f"fault-{i}")
        for i, rec in enumerate(self.plan.recurring):
            sim.process(self._run_recurring(
                rec, self._rng.stream(f"recurring-{i}")),
                name=f"fault-rec-{i}")

    # -- status queries (pure lookups; safe on every hot path) -----------

    def is_up(self, node: str) -> bool:
        """True unless the node is crashed or administratively off."""
        status = self.status.get(node)
        return status is None or status.up

    def is_reachable(self, node: str) -> bool:
        """False while the node sits on the far side of an active cut."""
        status = self.status.get(node)
        return status is None or status.unreachable_tokens == 0

    def detected_down(self, node: str) -> bool:
        """True once a crash *or a partition* has lasted ``detection_s``.

        Administrative power states are detected instantly: the control
        plane *deregistered* the node, it did not have to notice a
        silent death through missed health checks.  A partitioned node
        is alive but silent, and to every health check silence past the
        detection window looks exactly like death — the split-brain
        misjudgement partitions are famous for.
        """
        status = self.status.get(node)
        if status is None:
            return False
        if not status.up:
            if status.admin_off or status.admin_booting:
                return True
            return self.sim.now >= status.down_since + self.detection_s
        if status.unreachable_tokens:
            return self.sim.now >= (status.unreachable_since
                                    + self.detection_s)
        return False

    def went_down_since(self, node: str, t: float) -> bool:
        """Did the node start an outage at or after time ``t``?

        Used by shuffle fetch verification: data read from a node that
        died during the transfer window is suspect even if the node has
        already rebooted (its map outputs are gone either way).
        """
        status = self.status.get(node)
        return status is not None and status.last_down_at >= t

    def disk_failed(self, node: str) -> bool:
        status = self.status.get(node)
        return status is not None and status.disk_failed

    def node_watts(self, server, window) -> float:
        """Wall power of ``server`` over a ``(cpu, mem, disk, net)``
        utilisation ``window``, fault state included.

        Crashed nodes draw idle power (the paper's meters would keep
        counting a hung Edison), administratively powered-off nodes draw
        nothing — keeping work-done-per-joule honest under faults.  An
        up node is priced at its CPU's active P-state.
        """
        status = self.status.get(server.name)
        if status is None or status.up:
            return server.spec.power.window_power(window, server.cpu.pstate)
        if status.admin_off:
            return 0.0
        # Crashed-but-powered, or administratively booting: idle draw.
        return server.spec.power.min_w

    # -- administrative power control (the autoscaler's lever) -----------
    #
    # Deliberate suspend/resume shares the fault plane's machinery —
    # bound processes are interrupted with a FaultCause, listeners fire
    # with kind "admin", every status query gives the same answer a
    # crash would — but it is *not* a fault: no FaultRecord is written
    # (alert-detection ground truth stays clean) and no downtime
    # accrues (parking a node off-peak is not an outage).  All three
    # transitions are pure flag flips, callable from any process.

    def admin_state(self, node: str) -> str:
        """One of ``"on"``, ``"off"`` or ``"booting"``."""
        status = self.status[node]
        if status.admin_off:
            return "off"
        if status.admin_booting:
            return "booting"
        return "on"

    def admin_power_off(self, node: str) -> None:
        """Suspend ``node``: 0 W draw, out of service, work interrupted."""
        status = self.status[node]
        if status.admin_off:
            return
        was_up = status.up
        status.admin_off = True
        status.admin_booting = False
        self.status_version += 1
        if self.sim.trace is not None:
            self.sim.trace.instant("admin.power_off", category="autoscale",
                                   node=node)
        if was_up:
            for listener in list(self._listeners):
                listener("down", node, "admin")
            for process in list(self._bound[node]):
                if process.is_alive:
                    process.interrupt(FaultCause("admin", node))

    def admin_begin_boot(self, node: str) -> None:
        """Start booting a suspended node: idle draw, not yet serving."""
        status = self.status[node]
        if not status.admin_off:
            raise RuntimeError(f"{node} is not administratively off")
        status.admin_off = False
        status.admin_booting = True
        self.status_version += 1

    def admin_power_on(self, node: str) -> None:
        """Finish booting (or instantly resume) a suspended node."""
        status = self.status[node]
        if not (status.admin_off or status.admin_booting):
            return
        status.admin_off = False
        status.admin_booting = False
        self.status_version += 1
        if self.sim.trace is not None:
            self.sim.trace.instant("admin.power_on", category="autoscale",
                                   node=node)
        if status.up:
            for listener in list(self._listeners):
                listener("up", node, "admin")

    # -- bindings and listeners ------------------------------------------

    def bind(self, node: str, process) -> None:
        """Register a process to be interrupted if ``node`` crashes.

        A process binds *itself* before running work on a node, so the
        injector cannot interrupt here even when the node is already
        down (the kernel forbids self-interruption mid-execution);
        callers must check :meth:`is_up` after binding and bail out —
        that is what dispatching work to a dead machine earns you.
        """
        bound = self._bound.get(node)
        if bound is not None:
            bound[process] = None

    def unbind(self, node: str, process) -> None:
        bound = self._bound.get(node)
        if bound is not None:
            bound.pop(process, None)

    def add_listener(self, listener: FaultListener) -> None:
        """Call ``listener(event, node, kind)`` on every down/up edge."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def bound_processes(self, node: str) -> List:
        """The processes currently bound to ``node``, in bind order.

        The split-brain reconciliation path uses this: a partitioned
        node's work is *not* interrupted at cut time (nothing died), but
        once the majority side expires the node, its still-running
        attempts become zombies the runtime must account for.
        """
        return list(self._bound.get(node, ()))

    # -- availability accounting -----------------------------------------

    def downtime(self, node: str, until: Optional[float] = None) -> float:
        """Seconds ``node`` has been out of service so far."""
        until = self.sim.now if until is None else until
        status = self.status.get(node)
        if status is None:
            return 0.0
        open_s = (until - status.down_since
                  if status.down_since is not None else 0.0)
        return status.downtime_s + max(0.0, open_s)

    def unreachable_time(self, node: str,
                         until: Optional[float] = None) -> float:
        """Seconds ``node`` has been severed from the fabric so far.

        Deliberately *not* folded into :meth:`downtime`: a partitioned
        node is alive and drawing power, so availability accounting
        must match a run that never partitioned at all.
        """
        until = self.sim.now if until is None else until
        status = self.status.get(node)
        if status is None:
            return 0.0
        open_s = (until - status.unreachable_since
                  if status.unreachable_since is not None else 0.0)
        return status.unreachable_s + max(0.0, open_s)

    def mean_availability(self, until: Optional[float] = None,
                          nodes: Optional[List[str]] = None) -> float:
        """Up node-seconds over total node-seconds across ``nodes``."""
        until = self.sim.now if until is None else until
        names = list(nodes) if nodes is not None else list(self.status)
        if until <= 0 or not names:
            return 1.0
        lost = sum(self.downtime(n, until) for n in names)
        return 1.0 - lost / (until * len(names))

    def mean_mttr(self) -> Optional[float]:
        """Mean duration of completed outages (None if none completed)."""
        repaired = [r.duration for r in self.records
                    if r.duration is not None]
        if not repaired:
            return None
        return sum(repaired) / len(repaired)

    # -- fault execution --------------------------------------------------

    def _run_fault(self, fault: Fault):
        if fault.at > 0:
            yield self.sim.timeout(fault.at)
        yield from self._apply(fault)

    def _run_recurring(self, rec, stream):
        if rec.start > 0:
            yield self.sim.timeout(rec.start)
        while True:
            yield self.sim.timeout(stream.expovariate(1.0 / rec.mtbf_s))
            duration = stream.expovariate(1.0 / rec.mttr_s)
            yield from self._apply(rec.make_fault(self.sim.now, duration))

    def _apply(self, fault: Fault):
        record = FaultRecord(fault.kind, fault.node, self.sim.now)
        self.records.append(record)
        trace = self.sim.trace
        if trace is not None:
            trace.instant(f"fault.{fault.kind}", category="fault",
                          node=fault.node)
        if fault.kind == "crash":
            yield from self._apply_node_down(fault, record)
        elif fault.kind in PARTITION_KINDS:
            yield from self._apply_partition(fault, record)
        elif fault.kind == "cpu_throttle":
            yield from self._apply_cpu_throttle(fault, record)
        elif fault.kind == "packet_loss":
            yield from self._apply_packet_loss(fault, record)
        elif fault.kind == "disk_fail":
            self.status[fault.node].disk_failed = True
            self.status_version += 1
            # Permanent: the record's end stays None.  Listeners hear
            # about it (the HDFS repair monitor starts re-replicating);
            # pre-existing listeners filter on kind and ignore it.
            for listener in list(self._listeners):
                listener("down", fault.node, "disk_fail")
        else:  # pragma: no cover - models.py validates kinds
            raise ValueError(f"unhandled fault kind {fault.kind!r}")

    def _apply_node_down(self, fault: Fault, record: FaultRecord):
        status = self.status[fault.node]
        first = status.down_tokens == 0
        status.down_tokens += 1
        self.status_version += 1
        if first:
            status.down_since = self.sim.now
            status.last_down_at = self.sim.now
            # Detection/recovery layers first (blacklist, reclaim), so a
            # victim's cleanup (e.g. releasing its YARN container) runs
            # against a NodeManager that already knows the node is gone.
            for listener in list(self._listeners):
                listener("down", fault.node, fault.kind)
            for process in list(self._bound[fault.node]):
                if process.is_alive:
                    process.interrupt(FaultCause(fault.kind, fault.node))
        yield self.sim.timeout(fault.duration)
        status.down_tokens -= 1
        self.status_version += 1
        if status.down_tokens == 0:
            status.downtime_s += self.sim.now - status.down_since
            status.down_since = None
            for listener in list(self._listeners):
                listener("up", fault.node, fault.kind)
        record.end = self.sim.now
        if self.sim.trace is not None:
            self.sim.trace.complete(f"fault.{fault.kind}", record.start,
                                    category="fault", node=fault.node)

    def _apply_partition(self, fault: Fault, record: FaultRecord):
        """Sever a rack or node set; nothing dies, everything goes quiet.

        Bound processes are *not* interrupted — the far side keeps
        executing in blissful ignorance (that is the split-brain).  The
        runtime layers decide separately, through their own detection
        windows, when to give up on the silent nodes.
        """
        topology = self.cluster.topology
        members = (tuple(topology.rack_members(fault.rack)) if fault.rack
                   else fault.nodes)
        record.nodes = members
        cut_id = topology.sever(members,
                                isolate=fault.kind == "switch_down")
        now = self.sim.now
        for node in members:
            status = self.status[node]
            first = status.unreachable_tokens == 0
            status.unreachable_tokens += 1
            self.status_version += 1
            if first:
                status.unreachable_since = now
                for listener in list(self._listeners):
                    listener("down", node, fault.kind)
        yield self.sim.timeout(fault.duration)
        topology.heal(cut_id)
        now = self.sim.now
        for node in members:
            status = self.status[node]
            status.unreachable_tokens -= 1
            self.status_version += 1
            if status.unreachable_tokens == 0:
                status.unreachable_s += now - status.unreachable_since
                status.unreachable_since = None
                for listener in list(self._listeners):
                    listener("up", node, fault.kind)
        record.end = now
        if self.sim.trace is not None:
            self.sim.trace.complete(f"fault.{fault.kind}", record.start,
                                    category="fault", node=fault.node)

    def _nic_segments(self, node: str):
        return self.cluster.topology.nic_segments(node)

    def _rescale_nic(self, node: str) -> None:
        tx, rx = self._nic_segments(node)
        base_tx, base_rx = self._nic_base[node]
        factors = self._nic_factors.get(node, [])
        scale = 1.0
        for f in factors:
            scale *= f
        # Assign the exact base value back when no fault is active, so a
        # repaired NIC is bit-identical to one never degraded.
        tx.capacity_Bps = base_tx * scale if factors else base_tx
        rx.capacity_Bps = base_rx * scale if factors else base_rx
        self.cluster.topology.network.rescale()

    def _apply_cpu_throttle(self, fault: Fault, record: FaultRecord):
        cpu = self.cluster.servers[fault.node].cpu
        throttles = self._throttle_factors.setdefault(fault.node, [])
        throttles.append(fault.factor)
        scale = 1.0
        for f in throttles:
            scale *= f
        cpu.throttle = scale
        yield self.sim.timeout(fault.duration)
        throttles.remove(fault.factor)
        if throttles:
            scale = 1.0
            for f in throttles:
                scale *= f
            cpu.throttle = scale
        else:
            # Exact nominal value back, so a recovered CPU is
            # bit-identical to one never throttled.
            cpu.throttle = 1.0
        record.end = self.sim.now
        if self.sim.trace is not None:
            self.sim.trace.complete("fault.cpu_throttle", record.start,
                                    category="fault", node=fault.node,
                                    factor=fault.factor)

    def _apply_packet_loss(self, fault: Fault, record: FaultRecord):
        # Goodput under loss rate p is (1 - p) of line rate (every lost
        # packet is retransmitted), so packet loss scales the NIC's
        # segments: overlapping losses compose multiplicatively and
        # unwind to the bit-exact base rate.
        if fault.node not in self._nic_base:
            tx, rx = self._nic_segments(fault.node)
            self._nic_base[fault.node] = (tx.capacity_Bps, rx.capacity_Bps)
        goodput = 1.0 - fault.loss
        self._nic_factors.setdefault(fault.node, []).append(goodput)
        self._rescale_nic(fault.node)
        yield self.sim.timeout(fault.duration)
        self._nic_factors[fault.node].remove(goodput)
        self._rescale_nic(fault.node)
        record.end = self.sim.now
        if self.sim.trace is not None:
            self.sim.trace.complete("fault.packet_loss", record.start,
                                    category="fault", node=fault.node,
                                    loss=fault.loss)
