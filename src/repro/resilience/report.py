"""The resilience energy tax: what surviving gray failures costs.

Two paired experiments run the *same* seeded gray-failure plan twice —
once with every mitigation off (the historical, bit-identical path) and
once with ``resilience=True`` — and report both arms side by side:

* :func:`web_resilience_experiment` — a throttled/lossy/crashing web
  tier under steady load.  The unmitigated arm piles calls onto the
  limping backends (slow 200s, 500 cliffs, dead connections); the
  mitigated arm routes around them with breakers, retries, hedges and
  admission control, and the ledger meters every joule those
  mitigations burn.
* :func:`job_resilience_experiment` — a MapReduce job with straggling
  and crashing slaves.  The unmitigated arm waits out every straggler
  and re-runs crashed attempts from scratch; the mitigated arm
  speculates around them (LATE) and backs its retries off.

The punchline mirrors the paper's own currency: work-done-per-joule,
now measured *under failure* — with the mitigation waste (killed
speculative twins, losing hedge legs, shed replies) broken out so the
tax is visible, not hidden inside the total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

from ..core.records import Record, decoded
from ..faults.models import (FaultPlan, cpu_throttle, node_crash,
                             packet_loss)

#: Seed of the committed gray-failure experiment (CI smoke + docs).
GRAY_SEED = 42


# -- committed gray-failure plans ----------------------------------------


def web_gray_plan(nodes: Sequence[str]) -> FaultPlan:
    """The committed web-tier gray-failure plan over ``nodes``.

    Needs at least five web servers: three get thermally throttled to
    8 % of nominal DMIPS, one gets 30 % packet loss, and one crashes
    outright (repaired after 8 s) — every failure mode is *gray* except
    the one clean crash, which exercises detection-based failover next
    to the mitigation-based kind.
    """
    if len(nodes) < 5:
        raise ValueError("the gray plan needs at least 5 target nodes")
    return FaultPlan(faults=(
        cpu_throttle(nodes[0], at=2.0, duration=26.0, factor=0.08),
        cpu_throttle(nodes[1], at=2.0, duration=26.0, factor=0.08),
        cpu_throttle(nodes[2], at=2.0, duration=26.0, factor=0.08),
        node_crash(nodes[3], at=3.0, repair_s=8.0),
        packet_loss(nodes[4], at=2.0, duration=26.0, loss=0.3),
    ))


def job_gray_plan(nodes: Sequence[str]) -> FaultPlan:
    """The committed MapReduce gray-failure plan over ``nodes``.

    One slave drops to 8 % DMIPS *permanently* — a stuck P-state or a
    failed fan, the canonical gray failure: the NodeManager still
    heartbeats, so nothing evicts it, and on a single-wave job every
    map it holds becomes an unbounded straggler.  A second slave
    throttles more mildly for ~6 minutes (a passing thermal event), and
    a third crashes mid-map and comes back — so the unmitigated run
    both *fails task attempts* (the crash) and waits on the limping
    node for most of its makespan, burning idle watts on every healthy
    slave meanwhile.
    """
    if len(nodes) < 3:
        raise ValueError("the gray plan needs at least 3 target nodes")
    return FaultPlan(faults=(
        cpu_throttle(nodes[0], at=30.0, duration=1e9, factor=0.08),
        cpu_throttle(nodes[1], at=30.0, duration=385.0, factor=0.35),
        node_crash(nodes[2], at=60.0, repair_s=45.0),
    ))


# -- the two-arm report --------------------------------------------------


@dataclass(frozen=True)
class ResilienceArm(Record):
    """One arm (mitigated or unmitigated) of a paired gray-failure run."""

    derived = ("work_per_joule",)

    label: str
    completed: bool
    #: Successful calls (web) or jobs finished (MapReduce).
    work_done: float
    seconds: float
    joules: float
    errors: int = 0
    client_failures: int = 0
    task_failures: int = 0
    p95_s: Optional[float] = None
    availability: Optional[float] = None
    availability_met: Optional[bool] = None
    latency_met: Optional[bool] = None
    #: Ledger counters (mitigated arm only; empty when unmitigated).
    counters: Mapping[str, int] = field(default_factory=dict)
    #: Ledger waste joules per category (speculation/hedge/shed/retry).
    waste_joules: Mapping[str, float] = field(default_factory=dict)

    @property
    def work_per_joule(self) -> float:
        """The paper's currency, measured under failure."""
        if self.joules <= 0:
            return 0.0
        return self.work_done / self.joules

    @property
    def total_waste_joules(self) -> float:
        return sum(self.waste_joules.values())


@dataclass(frozen=True)
class ResilienceTaxReport(Record):
    """Mitigated vs unmitigated under one seeded gray-failure plan."""

    derived = ("energy_overhead_fraction", "waste_fraction",
               "work_per_joule_ratio")

    kind: str                   # "web" or "job"
    platform: str
    detail: str                 # scale / job name, for display
    unmitigated: ResilienceArm = decoded(ResilienceArm.from_dict)
    mitigated: ResilienceArm = decoded(ResilienceArm.from_dict)

    @property
    def energy_overhead_fraction(self) -> float:
        """Total joules of the mitigated arm relative to unmitigated."""
        if self.unmitigated.joules <= 0:
            return 0.0
        return self.mitigated.joules / self.unmitigated.joules - 1.0

    @property
    def waste_fraction(self) -> float:
        """Share of the mitigated arm's joules burned by mitigation."""
        if self.mitigated.joules <= 0:
            return 0.0
        return self.mitigated.total_waste_joules / self.mitigated.joules

    @property
    def work_per_joule_ratio(self) -> float:
        """>1: mitigation pays for itself even in the paper's currency."""
        base = self.unmitigated.work_per_joule
        if base <= 0:
            return float("inf") if self.mitigated.work_per_joule > 0 else 1.0
        return self.mitigated.work_per_joule / base

    def lines(self) -> List[str]:
        """The mitigated-vs-unmitigated table, CLI/docs-ready."""
        unit = "ok calls" if self.kind == "web" else "jobs"
        out = [f"Resilience energy tax — {self.kind} "
               f"({self.platform}, {self.detail})"]
        header = (f"  {'':24s} {'unmitigated':>14s} {'mitigated':>14s}")
        out.append(header)

        def row(name, a, b):
            out.append(f"  {name:24s} {a:>14s} {b:>14s}")

        u, m = self.unmitigated, self.mitigated
        row("completed", str(u.completed), str(m.completed))
        row(f"work done ({unit})", f"{u.work_done:.0f}", f"{m.work_done:.0f}")
        row("errors", str(u.errors), str(m.errors))
        if self.kind == "web":
            row("client failures", str(u.client_failures),
                str(m.client_failures))

            def fmt_p95(arm):
                return ("n/a" if arm.p95_s is None
                        else f"{arm.p95_s * 1000:.0f} ms")
            row("p95 delay", fmt_p95(u), fmt_p95(m))

            def fmt_avail(arm):
                if arm.availability is None:
                    return "n/a"
                verdict = "met" if arm.availability_met else "MISSED"
                return f"{arm.availability:.4%} {verdict}"
            row("availability SLO", fmt_avail(u), fmt_avail(m))
        else:
            row("failed task attempts", str(u.task_failures),
                str(m.task_failures))
            row("makespan", f"{u.seconds:.0f} s", f"{m.seconds:.0f} s")
        row("energy", f"{u.joules:.0f} J", f"{m.joules:.0f} J")
        row("work per kilojoule", f"{u.work_per_joule * 1000:.2f}",
            f"{m.work_per_joule * 1000:.2f}")
        out.append(f"  mitigation waste: {m.total_waste_joules:.1f} J "
                   f"({self.waste_fraction:.1%} of mitigated energy)")
        for category, joules in sorted(m.waste_joules.items()):
            if joules > 0:
                out.append(f"    {category}: {joules:.1f} J")
        interesting = {k: v for k, v in m.counters.items() if v}
        if interesting:
            out.append("  mitigation activity: " + ", ".join(
                f"{k}={v}" for k, v in sorted(interesting.items())))
        out.append(f"  energy overhead: "
                   f"{self.energy_overhead_fraction:+.1%}; "
                   f"work/joule ratio: {self.work_per_joule_ratio:.2f}x")
        return out


# -- web experiment ------------------------------------------------------


def web_resilience_experiment(platform: str = "edison", scale: str = "1/4",
                              concurrency: int = 24,
                              duration: float = 30.0, warmup: float = 1.0,
                              seed: int = GRAY_SEED,
                              plan: Optional[FaultPlan] = None,
                              trace=None) -> ResilienceTaxReport:
    """Run the committed web gray plan twice and report the tax.

    Both arms share the seed, the plan and the offered load; the only
    difference is whether resilience is armed.  Telemetry rides along
    on each arm for the SLO verdicts (its attachment is bit-neutral).
    """
    from ..telemetry import Telemetry     # deferred: import cycle
    from ..web import WebServiceDeployment

    def arm(label: str, resilience: bool):
        deployment = WebServiceDeployment(platform, scale, seed=seed,
                                          resilience=resilience,
                                          trace=trace)
        telemetry = Telemetry()
        telemetry.attach_web(deployment, until=duration)
        the_plan = plan if plan is not None else web_gray_plan(
            [w.server.name for w in deployment.web_nodes])
        deployment.attach_faults(the_plan)
        level = deployment.run_level(concurrency, duration=duration,
                                     warmup=warmup, collect_delays=True)
        slo = telemetry.slo_report()
        ledger = deployment.resilience_ledger
        return ResilienceArm(
            label=label, completed=True,
            work_done=float(level.ok_calls),
            seconds=level.window_s, joules=level.energy_joules,
            errors=level.error_calls + level.failed_connections,
            client_failures=slo.client_failures,
            p95_s=slo.p95_s, availability=slo.availability,
            availability_met=slo.availability_met,
            latency_met=slo.latency_met,
            counters=dict(ledger.counters) if ledger is not None else {},
            waste_joules=(dict(ledger.waste_joules)
                          if ledger is not None else {}))

    unmitigated = arm("unmitigated", False)
    mitigated = arm("mitigated", True)
    return ResilienceTaxReport(kind="web", platform=platform,
                               detail=f"scale {scale}, "
                                      f"{concurrency} conn/s",
                               unmitigated=unmitigated,
                               mitigated=mitigated)


# -- MapReduce experiment ------------------------------------------------


def job_resilience_experiment(job: str = "wordcount2",
                              platform: str = "edison", slaves: int = 8,
                              seed: int = GRAY_SEED,
                              plan: Optional[FaultPlan] = None,
                              deadline_s: float = 100_000.0,
                              trace=None) -> ResilienceTaxReport:
    """Run one Table 8 job under the gray plan, with and without LATE."""
    from ..faults import FaultInjector    # deferred: import cycle
    from ..mapreduce import JOB_FACTORIES, JobRunner
    from ..mapreduce.runtime import JobFailed

    def arm(label: str, resilience: bool):
        spec, hadoop_config = JOB_FACTORIES[job](platform, slaves)
        runner = JobRunner(platform, slaves, config=hadoop_config,
                           seed=seed, resilience=resilience, trace=trace)
        the_plan = plan if plan is not None else job_gray_plan(
            [s.name for s in runner.slave_servers])
        FaultInjector(runner.cluster, the_plan)
        completed = True
        report = None
        try:
            report = runner.run(spec, deadline_s=deadline_s)
        except JobFailed:
            completed = False
        ledger = runner.resilience_ledger
        return ResilienceArm(
            label=label, completed=completed,
            work_done=1.0 if completed else 0.0,
            seconds=report.seconds if report is not None else deadline_s,
            joules=report.joules if report is not None else 0.0,
            task_failures=runner.counts.failed_attempts,
            counters=dict(ledger.counters) if ledger is not None else {},
            waste_joules=(dict(ledger.waste_joules)
                          if ledger is not None else {}))

    unmitigated = arm("unmitigated", False)
    mitigated = arm("mitigated", True)
    return ResilienceTaxReport(kind="job", platform=platform,
                               detail=f"{job}, {slaves} slaves",
                               unmitigated=unmitigated,
                               mitigated=mitigated)
