"""The durability day: placement × replication × platform under fire.

One committed seeded day — a rack losing its ToR switch, a two-node
trunk partition, then a dead disk — runs against both platforms with
rack-aware and rack-oblivious placement at replication 1, 2 and 3.
Every arm reports the paper's currencies (seconds, joules) plus the
durability bill: blocks lost, block-seconds at risk, repair and
split-brain joules, and the reconciliation counters that prove the
split-brain cleanup never double-counts work.

The headline is the knee the paper's Section 6 reliability argument
picks: replication 1 loses data the moment a disk dies, replication 2
with rack-aware placement rides out every fault in the day at a modest
repair premium, and replication 3 pays real extra joules on the
35-node-class Edison cluster for no additional durability — which is
why r=2-on-Edison is the knee.

A per-platform *control* arm replays the same day with the partition
kinds stripped: partitions must add unreachable-seconds but **zero**
downtime-seconds, and the control's downtime must match the fault
arms' exactly — the ledger tolerance the smoke asserts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.records import Record, decoded, find, many
from ..faults.models import PARTITION_KINDS, FaultPlan
from .plane import DurabilityConfig

#: Seed of the committed durability day (the date this day was cut).
DAY_SEED = 20260809

PLATFORMS = ("edison", "dell")


@dataclass(frozen=True)
class DurabilityPlan(Record):
    """One committed, seeded durability day.

    Fault node/rack names may carry a ``{platform}`` placeholder —
    the cluster builders prefix every slave and rack with the platform
    name, and one committed day must address both testbeds.
    """

    name: str
    faults: FaultPlan = decoded(FaultPlan.from_dict)
    slaves: int = 8
    racks: int = 2
    job: str = "wordcount2"
    replications: Tuple[int, ...] = (1, 2, 3)
    settle_s: float = 30.0
    seed: int = DAY_SEED
    detection_s: float = 0.25

    def __post_init__(self):
        object.__setattr__(self, "replications",
                           tuple(self.replications))
        if self.faults.is_empty:
            raise ValueError("a durability day needs faults to survive")
        if self.slaves < 2:
            raise ValueError("need >= 2 slaves")
        if not 2 <= self.racks <= self.slaves:
            raise ValueError("need >= 2 racks (rack-awareness is the "
                             "point) and <= one per slave")
        if not self.replications or any(r < 1 for r in self.replications):
            raise ValueError("replications must be positive")
        if max(self.replications) > self.slaves:
            raise ValueError("replication cannot exceed slave count")
        if self.settle_s < 0 or self.detection_s < 0:
            raise ValueError("settle_s and detection_s must be >= 0")

    def faults_for(self, platform: str) -> FaultPlan:
        """The committed faults with ``{platform}`` names resolved."""
        resolved = tuple(
            dataclasses.replace(
                f, node=f.node.format(platform=platform),
                rack=f.rack.format(platform=platform),
                nodes=tuple(n.format(platform=platform)
                            for n in f.nodes))
            for f in self.faults.faults)
        return FaultPlan(faults=resolved, recurring=self.faults.recurring)

    def config(self, rack_aware: bool) -> DurabilityConfig:
        return DurabilityConfig(rack_aware=rack_aware)


@dataclass(frozen=True)
class DurabilityArm(Record):
    """One placement/replication choice living through the day."""

    derived = ("label", "durable", "same_rack_read_fraction")

    platform: str
    rack_aware: bool
    replication: int
    control: bool = False
    job_failed: bool = False
    job_seconds: float = 0.0
    day_seconds: float = 0.0
    joules: float = 0.0
    blocks_created: int = 0
    blocks_lost: int = 0
    loss_events: int = 0
    under_replicated_block_s: float = 0.0
    unavailable_block_s: float = 0.0
    max_under_replicated: int = 0
    conservation_violations: int = 0
    repairs_completed: int = 0
    repairs_deferred: int = 0
    repair_bytes: float = 0.0
    re_replication_j: float = 0.0
    split_brain_j: float = 0.0
    zombies_started: int = 0
    duplicate_kills: int = 0
    reregistered: int = 0
    downtime_s: float = 0.0
    unreachable_s: float = 0.0
    same_rack_read_bytes: float = 0.0
    cross_rack_read_bytes: float = 0.0

    @property
    def label(self) -> str:
        placement = "rack-aware" if self.rack_aware else "oblivious"
        tag = "/control" if self.control else ""
        return f"{self.platform}/{placement}/r{self.replication}{tag}"

    @property
    def durable(self) -> bool:
        return self.blocks_lost == 0 and not self.job_failed

    @property
    def same_rack_read_fraction(self) -> Optional[float]:
        total = self.same_rack_read_bytes + self.cross_rack_read_bytes
        if total <= 0:
            return None
        return self.same_rack_read_bytes / total


@dataclass(frozen=True)
class DurabilityReport(Record):
    """The whole day, every arm, plus the knee verdict."""

    derived = ("knee", "partition_downtime_clean")

    plan_name: str
    detail: str
    arms: Tuple[DurabilityArm, ...] = decoded(many(DurabilityArm.from_dict))
    controls: Tuple[DurabilityArm, ...] = decoded(
        many(DurabilityArm.from_dict), default=())

    def arm(self, platform: str, rack_aware: bool,
            replication: int) -> DurabilityArm:
        return find(self.arms, platform=platform, rack_aware=rack_aware,
                    replication=replication)

    def control(self, platform: str) -> DurabilityArm:
        return find(self.controls, platform=platform)

    @property
    def knee(self) -> Dict[str, Optional[int]]:
        """Per platform, the smallest rack-aware replication that lost
        nothing all day (None when none survived)."""
        out: Dict[str, Optional[int]] = {}
        for platform in sorted({a.platform for a in self.arms}):
            out[platform] = next(
                (r for r in sorted({a.replication for a in self.arms
                                    if a.platform == platform
                                    and a.rack_aware})
                 if self.arm(platform, True, r).durable), None)
        return out

    def partition_downtime_clean(self, tol_s: float = 1e-6) -> bool:
        """Partitions add unreachable-seconds but zero downtime.

        Each platform's fault arms must match the no-partition control
        on downtime within ``tol_s`` — the split-brain machinery never
        books a live (merely severed) node as down.
        """
        for control in self.controls:
            peer = self.arm(control.platform, control.rack_aware,
                            control.replication)
            if abs(peer.downtime_s - control.downtime_s) > tol_s:
                return False
        return True

    def lines(self) -> List[str]:
        out = [f"Durability day — {self.plan_name} ({self.detail})"]
        out.append(f"  {'arm':30s} {'job':>7s} {'energy':>9s} "
                   f"{'lost':>5s} {'risk b·s':>9s} {'repairs':>8s} "
                   f"{'repair J':>9s} {'zombie J':>9s}")
        for arm in (*self.arms, *self.controls):
            job = "failed" if arm.job_failed else f"{arm.job_seconds:.0f} s"
            out.append(
                f"  {arm.label:30s} {job:>7s} {arm.joules:>7.0f} J "
                f"{arm.blocks_lost:>5d} "
                f"{arm.under_replicated_block_s:>9.1f} "
                f"{arm.repairs_completed:>8d} "
                f"{arm.re_replication_j:>9.1f} "
                f"{arm.split_brain_j:>9.1f}")
        for platform, knee in self.knee.items():
            r1 = None
            try:
                r1 = self.arm(platform, True, 1)
            except KeyError:
                pass
            if knee is None:
                out.append(f"  verdict [{platform}]: no replication "
                           f"level survived the day")
                continue
            lost = f"{r1.blocks_lost} block(s)" if r1 is not None else "data"
            line = (f"  verdict [{platform}]: r={knee} rack-aware is the "
                    f"knee — r=1 lost {lost}")
            if knee + 1 in {a.replication for a in self.arms
                            if a.platform == platform and a.rack_aware}:
                above = self.arm(platform, True, knee + 1)
                base = self.arm(platform, True, knee)
                if base.joules > 0:
                    extra = (above.joules / base.joules - 1.0) * 100.0
                    line += (f", r={knee + 1} pays {extra:+.1f}% energy "
                             f"for nothing more")
            out.append(line)
        clean = self.partition_downtime_clean()
        out.append("  reconciliation: partitions added "
                   + ("zero downtime (clean)" if clean
                      else "DOWNTIME — split-brain accounting leak"))
        return out


# -- running the day -------------------------------------------------------


def _run_arm(plan: DurabilityPlan, platform: str, rack_aware: bool,
             replication: int, faults: FaultPlan, control: bool = False,
             trace=None) -> DurabilityArm:
    from ..faults import FaultInjector
    from ..mapreduce import JOB_FACTORIES, JobRunner
    from ..mapreduce.runtime import JobFailed
    from .plane import attach_job

    spec, config = JOB_FACTORIES[plan.job](platform, plan.slaves)
    config = dataclasses.replace(config, replication=replication)
    runner = JobRunner(platform, plan.slaves, config=config,
                       seed=plan.seed, racks=plan.racks, trace=trace)
    injector = FaultInjector(runner.cluster, faults,
                             detection_s=plan.detection_s)
    ledger = attach_job(runner, plan.config(rack_aware))
    job_failed = False
    job_seconds = 0.0
    try:
        report = runner.run(spec)
        job_seconds = report.seconds
        runner.sim.run(until=runner.sim.now + plan.settle_s)
        runner.meter.sample()
    except JobFailed:
        # Data a job needs is gone for good (r=1 and a dead disk);
        # real Hadoop fails the job, so the arm records exactly that.
        job_failed = True
        ledger.sample()             # final census: stamp the loss
    day_seconds = runner.sim.now
    monitor = runner.hdfs.monitor
    health = runner.hdfs.health_summary()
    counters = runner.partition_counters
    slaves = [s.name for s in runner.slave_servers]
    return DurabilityArm(
        platform=platform, rack_aware=rack_aware,
        replication=replication, control=control,
        job_failed=job_failed, job_seconds=job_seconds,
        day_seconds=day_seconds,
        joules=runner.meter.energy_joules(),
        blocks_created=health["blocks_created"],
        blocks_lost=ledger.blocks_lost,
        loss_events=len(ledger.loss_events),
        under_replicated_block_s=ledger.under_replicated_block_s,
        unavailable_block_s=ledger.unavailable_block_s,
        max_under_replicated=ledger.max_under_replicated,
        conservation_violations=ledger.conservation_violations,
        repairs_completed=monitor.repairs_completed if monitor else 0,
        repairs_deferred=monitor.repairs_deferred if monitor else 0,
        repair_bytes=ledger.repair_bytes,
        re_replication_j=ledger.joules["re_replication"],
        split_brain_j=ledger.joules["split_brain"],
        zombies_started=counters["zombies_started"],
        duplicate_kills=counters["duplicate_kills"],
        reregistered=counters["reregistered"],
        downtime_s=sum(injector.downtime(n, until=day_seconds)
                       for n in slaves),
        unreachable_s=sum(injector.unreachable_time(n, until=day_seconds)
                          for n in slaves),
        same_rack_read_bytes=runner.hdfs.same_rack_read_bytes,
        cross_rack_read_bytes=runner.hdfs.cross_rack_read_bytes)


def durability_experiment(plan: DurabilityPlan,
                          platforms: Tuple[str, ...] = PLATFORMS,
                          controls: bool = True,
                          trace=None) -> DurabilityReport:
    """Run the committed day: every placement × replication × platform.

    ``controls`` adds one arm per platform replaying the day with the
    partition kinds stripped (rack-aware, highest replication) — the
    downtime reference :meth:`DurabilityReport.partition_downtime_clean`
    compares against.
    """
    arms = tuple(
        _run_arm(plan, platform, rack_aware, replication,
                 plan.faults_for(platform), trace=trace)
        for platform in platforms
        for rack_aware in (False, True)
        for replication in plan.replications)
    control_arms = ()
    if controls:
        top = max(plan.replications)
        control_arms = tuple(
            _run_arm(plan, platform, True, top,
                     plan.faults_for(platform).without_kinds(
                         PARTITION_KINDS),
                     control=True, trace=trace)
            for platform in platforms)
    kinds = sorted({f.kind for f in plan.faults.faults})
    return DurabilityReport(
        plan_name=plan.name,
        detail=f"{plan.slaves} slaves in {plan.racks} racks, "
               f"{plan.job}, faults {', '.join(kinds)}, "
               f"seed {plan.seed}",
        arms=arms, controls=control_arms)
