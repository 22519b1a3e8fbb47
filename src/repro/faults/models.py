"""Fault models: what can go wrong, when, and for how long.

Every fault is a :class:`Fault` value — one kind, one victim node, one
onset time and (except for permanent disk loss) one repair time.  Plans
hold one-shot faults plus :class:`RecurringFault` generators that draw
exponential time-between-failures / time-to-repair from a seeded stream,
so a chaos run is as reproducible as any other simulation.  All three
are :class:`~repro.core.records.Record` types and all validation
happens at construction: a bad plan fails before the simulation burns
any time.

The kinds model the failure classes the SBC-cluster literature reports
for sensor-class hardware (node dropouts first, then flaky links, hot
CPUs, dead SD cards and severed racks):

``crash``
    The node halts at ``at`` and is back ``duration`` seconds later
    (operator reboot / watchdog).  Running work on it dies; while down
    the node still draws idle power (it sits in the bootloader or at a
    login prompt) — the honest accounting for work-per-joule.
``disk_fail``
    The disk dies at ``at`` and every HDFS replica on it is lost for
    good (no re-replication is modelled).  Reads fall back to surviving
    replicas; a job fails cleanly only when a block has none left.
``cpu_throttle``
    Thermal throttling: every DMIPS rate on the node is scaled by
    ``factor`` for ``duration`` seconds.  Nothing dies and no health
    check fires — the canonical *gray* failure that turns a node into a
    straggler factory.
``packet_loss``
    The NIC loses a fraction ``loss`` of packets for ``duration``
    seconds; retransmissions inflate every effective transfer time by
    ``1 / (1 - loss)`` (goodput shrinks to ``1 - loss`` of line rate).
    Overlapping losses on the same link stack multiplicatively.
``partition``
    A network cut: the named rack (or an explicit node set) is severed
    from the rest of the cluster for ``duration`` seconds.  Nothing
    dies — nodes on each side keep running and keep talking to their
    own side, which is exactly what makes partitions nastier than
    crashes: every health check sees *silence*, not a corpse.
``switch_down``
    A rack's ToR switch dies: its members lose all connectivity,
    including to each other, for ``duration`` seconds.  The correlated
    whole-enclosure failure the SBC literature warns about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.records import Record, decoded, domain, many

#: The recognised fault kinds.
FAULT_KINDS = ("crash", "disk_fail", "cpu_throttle", "packet_loss",
               "partition", "switch_down")

#: The *gray* kinds: the node stays "up" to every health check while
#: quietly running slow — exactly the failures mitigation exists for.
GRAY_KINDS = ("cpu_throttle", "packet_loss")

#: Kinds that sever connectivity without killing anything: the victims
#: stay *up* but become *unreachable* — the down/unreachable distinction
#: the whole partition-tolerance layer exists to honour.
PARTITION_KINDS = ("partition", "switch_down")


@dataclass(frozen=True)
class FaultCause:
    """Attached to the kernel ``Interrupt`` thrown into victim processes."""

    kind: str
    node: str

@dataclass(frozen=True)
class Fault(Record):
    """One scheduled fault on one node.  Use the constructor helpers."""

    kind: str
    node: str
    at: float = domain(">= 0")
    #: Seconds until repair; ``inf`` means permanent (disk_fail only).
    duration: float = domain("> 0", finite=False, default=math.inf)
    #: Remaining fraction of DMIPS during a ``cpu_throttle`` fault.
    factor: float = domain("> 0", default=1.0)
    #: Fraction of packets lost during a ``packet_loss`` fault.
    loss: float = domain(">= 0", default=0.0)
    #: Rack severed by a ``partition``/``switch_down`` fault (resolved
    #: against the topology at injection time).
    rack: str = ""
    #: Explicit node set severed by a ``partition`` fault (alternative
    #: to naming a whole rack).
    nodes: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        super().__post_init__()
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if not self.node:
            raise ValueError("a fault needs a victim node name")
        if math.isinf(self.duration) and self.kind != "disk_fail":
            raise ValueError(f"Fault: field 'duration' may be inf only "
                             f"for disk_fail; {self.kind} needs a finite "
                             "duration")
        if self.kind in PARTITION_KINDS:
            if bool(self.rack) == bool(self.nodes):
                raise ValueError(f"{self.kind} needs exactly one of "
                                 "rack= or nodes=")
            if self.kind == "switch_down" and not self.rack:
                raise ValueError("switch_down severs a whole rack; "
                                 "use partition for arbitrary node sets")
        elif self.rack or self.nodes:
            raise ValueError(f"rack/nodes only apply to {PARTITION_KINDS}")
        if self.kind == "cpu_throttle" and self.factor > 1:
            raise ValueError("cpu_throttle factor must be in (0, 1]")
        if self.kind == "packet_loss" and not 0 < self.loss < 1:
            # loss 1 would starve the link outright — that's a crash or
            # a partition, not a gray fault.
            raise ValueError("packet_loss loss must be in (0, 1)")

    def to_dict(self) -> Dict:
        out: Dict = {"kind": self.kind, "node": self.node, "at": self.at}
        if not math.isinf(self.duration):
            out["duration"] = self.duration
        if self.kind == "cpu_throttle":
            out["factor"] = self.factor
        if self.kind == "packet_loss":
            out["loss"] = self.loss
        if self.rack:
            out["rack"] = self.rack
        if self.nodes:
            out["nodes"] = list(self.nodes)
        return out


def node_crash(node: str, at: float, repair_s: float) -> Fault:
    """The node halts at ``at`` and serves again ``repair_s`` later."""
    return Fault(kind="crash", node=node, at=at, duration=repair_s)


def disk_failure(node: str, at: float) -> Fault:
    """The disk dies at ``at``; its block replicas are lost for good."""
    return Fault(kind="disk_fail", node=node, at=at)


def cpu_throttle(node: str, at: float, duration: float,
                 factor: float) -> Fault:
    """DMIPS drop to ``factor`` of nominal for ``duration`` seconds."""
    return Fault(kind="cpu_throttle", node=node, at=at, duration=duration,
                 factor=factor)


def packet_loss(node: str, at: float, duration: float,
                loss: float) -> Fault:
    """The NIC loses fraction ``loss`` of packets for ``duration`` s."""
    return Fault(kind="packet_loss", node=node, at=at, duration=duration,
                 loss=loss)


def rack_partition(rack: str, at: float, duration: float) -> Fault:
    """Sever ``rack`` from the rest of the fabric for ``duration`` s."""
    return Fault(kind="partition", node=rack, at=at, duration=duration,
                 rack=rack)


def node_set_partition(nodes: Iterable[str], at: float,
                       duration: float) -> Fault:
    """Sever an arbitrary node set from everything else; the cut is
    labelled by its comma-joined members."""
    members = tuple(nodes)
    return Fault(kind="partition", node=",".join(members),
                 at=at, duration=duration, nodes=members)


def switch_down(rack: str, at: float, duration: float) -> Fault:
    """Kill ``rack``'s ToR switch: its members lose all connectivity."""
    return Fault(kind="switch_down", node=rack, at=at, duration=duration,
                 rack=rack)


@dataclass(frozen=True)
class RecurringFault(Record):
    """A seeded stochastic fault process on one node.

    Time between failures is exponential with mean ``mtbf_s``; each
    outage lasts an exponential draw with mean ``mttr_s``.  Draws come
    from the injector's dedicated RNG stream, so two runs with the same
    seed see the same fault history.
    """

    kind: str
    node: str
    mtbf_s: float = domain("> 0")
    mttr_s: float = domain("> 0")
    #: No fault fires before this time (let the system warm up).
    start: float = domain(">= 0", default=0.0)
    factor: float = domain("> 0", default=0.5)
    loss: float = domain(">= 0", default=0.1)

    def __post_init__(self):
        super().__post_init__()
        if self.kind == "disk_fail":
            raise ValueError("disk_fail is permanent and cannot recur; "
                             "schedule it as a one-shot fault")
        if self.kind in PARTITION_KINDS:
            raise ValueError(f"{self.kind} severs a node *set* and must "
                             "be scheduled as a one-shot fault")
        # Re-use Fault's kind, node and kind-parameter validation.
        Fault(kind=self.kind, node=self.node, at=self.start, duration=1.0,
              factor=self.factor, loss=self.loss)

    def make_fault(self, at: float, duration: float) -> Fault:
        """One concrete outage of this process."""
        return Fault(kind=self.kind, node=self.node, at=at,
                     duration=duration, factor=self.factor, loss=self.loss)

    def to_dict(self) -> Dict:
        out: Dict = {"kind": self.kind, "node": self.node,
                     "mtbf_s": self.mtbf_s, "mttr_s": self.mttr_s}
        if self.start:
            out["start"] = self.start
        if self.kind == "cpu_throttle":
            out["factor"] = self.factor
        if self.kind == "packet_loss":
            out["loss"] = self.loss
        return out


@dataclass(frozen=True)
class FaultPlan(Record):
    """Everything a chaos run will inject: one-shots plus processes."""

    faults: Tuple[Fault, ...] = decoded(many(Fault.from_dict),
                                        default_factory=tuple)
    recurring: Tuple[RecurringFault, ...] = decoded(
        many(RecurringFault.from_dict), default_factory=tuple)

    @property
    def is_empty(self) -> bool:
        return not self.faults and not self.recurring

    def __len__(self) -> int:
        return len(self.faults) + len(self.recurring)

    def nodes(self) -> List[str]:
        """Every node the plan targets (deduplicated, plan order).

        Partition faults contribute their explicit ``nodes`` sets; a
        rack label is not a node and is resolved against the topology
        at injection time instead.
        """
        seen: List[str] = []
        for item in (*self.faults, *self.recurring):
            names = (item.nodes if getattr(item, "rack", "")
                     or getattr(item, "nodes", ()) else (item.node,))
            for name in names:
                if name not in seen:
                    seen.append(name)
        return seen

    def racks(self) -> List[str]:
        """Every rack the plan severs (deduplicated, plan order)."""
        seen: List[str] = []
        for fault in self.faults:
            if fault.rack and fault.rack not in seen:
                seen.append(fault.rack)
        return seen

    def check_against(self, known_nodes: Iterable[str]) -> None:
        """Fail fast when the plan names a node the cluster lacks."""
        known = set(known_nodes)
        missing = [n for n in self.nodes() if n not in known]
        if missing:
            raise ValueError(
                f"fault plan targets unknown node(s) {missing}; "
                f"cluster has {sorted(known)}")

    def without_kinds(self, kinds: Iterable[str]) -> "FaultPlan":
        """A copy with every fault of the given kinds stripped.

        The durability acceptance check runs the committed day once
        with partitions and once with ``without_kinds(PARTITION_KINDS)``
        as the no-partition control for downtime accounting.
        """
        drop = set(kinds)
        return FaultPlan(
            faults=tuple(f for f in self.faults if f.kind not in drop),
            recurring=tuple(r for r in self.recurring
                            if r.kind not in drop))


def single_node_kill(node: str, at: float,
                     repair_s: Optional[float] = None) -> FaultPlan:
    """The headline plan: kill one node, optionally bring it back."""
    # "Never repaired" defaults to a repair beyond any realistic run,
    # still finite because disk_fail is the only permanent kind.
    repair = repair_s if repair_s is not None else 1e9
    return FaultPlan(faults=(node_crash(node, at, repair),))
