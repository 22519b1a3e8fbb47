"""Chaos accounting: availability, MTTR, goodput and energy overheads.

Two canned experiments back the paper's reliability argument (Section
5.2 chose replication 2 on the 35-node Edison cluster *because* losing
sensor-class nodes is routine):

* :func:`web_kill_experiment` — kill one web server mid-measurement and
  compare goodput against an identical fault-free run.  On the
  full-scale Edison tier the loss is ~1/N of capacity (the marginal
  loss the micro-server pitch advertises); on the 2-server Dell tier it
  is catastrophic.
* :func:`job_kill_experiment` — kill one Hadoop slave mid-job and show
  the job still completes through task re-execution and HDFS replica
  fallback, at a measured time/energy overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .injector import FaultInjector
from .models import FaultPlan, single_node_kill


@dataclass(frozen=True)
class AvailabilityReport:
    """Node-availability summary of one chaos run."""

    window_s: float
    mean_availability: float
    total_downtime_s: float
    mean_mttr_s: Optional[float]
    faults_injected: int
    open_outages: int

    @classmethod
    def from_injector(cls, injector: FaultInjector,
                      until: Optional[float] = None
                      ) -> "AvailabilityReport":
        """Every node the injector tracks, over ``[0, until]``."""
        until = injector.sim.now if until is None else until
        names = list(injector.status)
        down = sum(injector.downtime(n, until) for n in names)
        return cls(
            window_s=until,
            mean_availability=injector.mean_availability(until, names),
            total_downtime_s=down,
            mean_mttr_s=injector.mean_mttr(),
            faults_injected=len(injector.records),
            open_outages=sum(1 for r in injector.records if r.end is None))

    def lines(self) -> List[str]:
        """Human-readable summary rows for the CLI."""
        mttr = ("n/a" if self.mean_mttr_s is None
                else f"{self.mean_mttr_s:.1f} s")
        return [
            f"faults injected: {self.faults_injected} "
            f"({self.open_outages} unrepaired)",
            f"mean node availability: {self.mean_availability * 100:.2f} % "
            f"over {self.window_s:.0f} s",
            f"total node downtime: {self.total_downtime_s:.1f} s",
            f"mean time to repair: {mttr}",
        ]


# -- web tier ------------------------------------------------------------


@dataclass(frozen=True)
class WebChaosResult:
    """Goodput under a web-tier fault plan vs the fault-free baseline."""

    platform: str
    victims: List[str]
    web_servers: int
    baseline: object            # LevelResult
    faulted: object             # LevelResult
    availability: AvailabilityReport
    #: 1 - faulted/baseline goodput over the measurement window.
    goodput_loss_fraction: float
    #: Capacity-share prediction: victim downtime inside the window,
    #: as a fraction of window x web-server count.
    expected_loss_fraction: float
    #: Relative change in joules per successful call.
    energy_per_call_overhead: float


def web_kill_experiment(platform: str = "edison", scale: str = "full",
                        victim: Optional[str] = None,
                        plan: Optional[FaultPlan] = None,
                        concurrency: int = 512,
                        duration: float = 6.0, warmup: float = 1.5,
                        kill_at: float = 1.5,
                        repair_s: Optional[float] = None,
                        seed: int = 20160901,
                        trace=None, telemetry=None,
                        resilience: bool = False) -> WebChaosResult:
    """Run one concurrency level twice: fault-free, then under ``plan``.

    Without an explicit ``plan``, ``victim`` (default: the first web
    server) is killed at ``kill_at`` and repaired after ``repair_s``
    (default: never within the run).  Both runs use the same seed, so
    the only difference is the injected faults.  A
    :class:`repro.telemetry.Telemetry` passed as ``telemetry`` monitors
    the faulted run (the one whose detection latency is interesting).
    ``resilience=True`` arms the *faulted* run only — the baseline
    stays the clean, unmitigated twin the overheads are measured
    against.
    """
    from ..web import WebServiceDeployment   # deferred: import cycle
    baseline_dep = WebServiceDeployment(platform, scale, seed=seed)
    baseline = baseline_dep.run_level(concurrency, duration=duration,
                                      warmup=warmup)
    dep = WebServiceDeployment(platform, scale, seed=seed, trace=trace,
                               resilience=resilience)
    if plan is None:
        victim = victim or dep.web_nodes[0].server.name
        plan = single_node_kill(victim, kill_at, repair_s)
    if telemetry is not None:
        telemetry.attach_web(dep)
    injector = dep.attach_faults(plan)
    faulted = dep.run_level(concurrency, duration=duration, warmup=warmup)
    window = duration - warmup
    down_in_window = 0.0
    for record in injector.records:
        if record.kind != "crash":
            continue
        end = record.end if record.end is not None else duration
        down_in_window += max(
            0.0, min(end, duration) - max(record.start, warmup))
    loss = (1.0 - faulted.ok_calls / baseline.ok_calls
            if baseline.ok_calls else 0.0)
    expected = down_in_window / window / len(dep.web_nodes)
    if baseline.ok_calls and faulted.ok_calls and baseline.energy_joules:
        per_call_base = baseline.energy_joules / baseline.ok_calls
        per_call_fault = faulted.energy_joules / faulted.ok_calls
        energy_overhead = per_call_fault / per_call_base - 1.0
    else:
        energy_overhead = 0.0
    return WebChaosResult(
        platform=platform,
        victims=plan.nodes(),
        web_servers=len(dep.web_nodes),
        baseline=baseline,
        faulted=faulted,
        availability=AvailabilityReport.from_injector(injector,
                                                      until=duration),
        goodput_loss_fraction=loss,
        expected_loss_fraction=expected,
        energy_per_call_overhead=energy_overhead)


# -- MapReduce -----------------------------------------------------------


@dataclass(frozen=True)
class JobChaosResult:
    """A job run under faults vs its fault-free twin."""

    job: str
    platform: str
    slaves: int
    victims: List[str]
    #: The job finished despite the faults (False: failed cleanly).
    completed: bool
    baseline: object            # JobReport
    faulted: Optional[object]   # JobReport; None when not completed
    availability: AvailabilityReport
    #: Completed map outputs lost to node failure and re-executed.
    recovered_maps: int
    time_overhead_fraction: float
    energy_overhead_fraction: float


def job_kill_experiment(job: str = "wordcount", platform: str = "edison",
                        slaves: int = 35,
                        victim: Optional[str] = None,
                        plan: Optional[FaultPlan] = None,
                        kill_at: float = 30.0,
                        repair_s: Optional[float] = None,
                        seed: int = 20160901,
                        trace=None, telemetry=None,
                        resilience: bool = False) -> JobChaosResult:
    """Run one Table 8 job twice: fault-free, then under ``plan``.

    Without an explicit ``plan``, ``victim`` (default: the first slave)
    crashes at ``kill_at`` and is repaired after ``repair_s`` (default:
    never within the run).  ``telemetry`` monitors the faulted run;
    ``resilience=True`` arms the faulted run only, leaving the baseline
    as the clean twin.
    """
    from ..mapreduce import JOB_FACTORIES, JobRunner  # deferred: cycle
    from ..mapreduce.runtime import JobFailed
    spec, config = JOB_FACTORIES[job](platform, slaves)
    baseline_runner = JobRunner(platform, slaves, config=config, seed=seed)
    baseline = baseline_runner.run(spec)
    runner = JobRunner(platform, slaves, config=config, seed=seed,
                       trace=trace, resilience=resilience)
    if plan is None:
        victim = victim or runner.slave_servers[0].name
        plan = single_node_kill(victim, kill_at, repair_s)
    if telemetry is not None:
        telemetry.attach_job(runner)
    injector = FaultInjector(runner.cluster, plan)
    completed = True
    faulted: Optional[object] = None
    try:
        faulted = runner.run(spec)
    except JobFailed:
        completed = False
    if completed and faulted is not None:
        time_over = faulted.seconds / baseline.seconds - 1.0
        energy_over = faulted.joules / baseline.joules - 1.0
    else:
        time_over = float("inf")
        energy_over = float("inf")
    return JobChaosResult(
        job=job, platform=platform, slaves=slaves,
        victims=plan.nodes(),
        completed=completed,
        baseline=baseline, faulted=faulted,
        availability=AvailabilityReport.from_injector(injector),
        recovered_maps=runner.counts.lost_map_count,
        time_overhead_fraction=time_over,
        energy_overhead_fraction=energy_over)
