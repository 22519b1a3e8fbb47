"""The deferral queue in front of YARN submission.

The paper's clusters run one MapReduce job at a time; the carbon
scheduler keeps that contract and moves the *queue* instead: released
jobs wait in front of the cluster, the policy picks which goes next
and how long it may hold out for cleaner grid-seconds, and each job
then runs in its own fresh :class:`~repro.mapreduce.JobRunner` seeded
identically across arms.  Identical seeds mean a job's duration and
joules are bit-identical whichever policy launches it — only its
*place in the day* moves, which is exactly the variable under test
(the suspend-resume arm is the one exception: parking mid-run
legitimately changes the run itself).

The day clock is plain bookkeeping: job N's run starts at day time
``start``, its local sim seconds map to ``start + t``.  Nothing here
touches a run that the no-wait policy wouldn't also do, which is what
makes the no-wait arm the off-path fidelity baseline.
"""

from __future__ import annotations

from typing import List, Optional

from ..faults import FaultInjector
from ..mapreduce.runtime import JobRunner
from .governor import CarbonGovernor
from .jobspec import CarbonJobSpec
from .ledger import CarbonLedger, JobRecord, grid_impact
from .policy import SchedulingPolicy, make_policy
from .trace import SignalTrace


class CarbonScheduler:
    """Run one day of deferrable jobs under one policy on one platform."""

    def __init__(self, platform: str, slaves: int, policy: str,
                 intensity: SignalTrace, price: SignalTrace,
                 seed: int = 20160901):
        if slaves < 1:
            raise ValueError("slaves must be >= 1")
        self.platform = platform
        self.slaves = slaves
        self.policy: SchedulingPolicy = make_policy(policy, intensity)
        self.intensity = intensity
        self.price = price
        self.seed = seed

    # -- one job ----------------------------------------------------------

    def _run_one(self, job: CarbonJobSpec, start_day_s: float,
                 ledger: CarbonLedger) -> JobRecord:
        spec, config = job.build(self.platform)
        runner = JobRunner(self.platform, self.slaves, config=config,
                           seed=self.seed)
        governor: Optional[CarbonGovernor] = None
        if self.policy.governed:
            # The governor needs the admin power states, which need an
            # injector; an empty-plan one is invisible to the run.
            FaultInjector(runner.cluster)
            governor = CarbonGovernor(runner, job, self.policy,
                                      self.intensity, start_day_s,
                                      ledger=ledger)
            governor.attach()
        report = runner.run(spec)
        impact = grid_impact(report.timeline.power_w, start_day_s,
                             self.intensity, self.price)
        return JobRecord(
            name=job.name, kind=job.kind,
            release_s=job.release_s, deadline_s=job.deadline_s,
            start_s=start_day_s, end_s=start_day_s + report.seconds,
            seconds=report.seconds, joules=report.joules,
            grams_co2=impact.grams_co2, energy_usd=impact.energy_usd,
            suspensions=governor.suspensions if governor else 0,
            suspended_s=governor.suspended_s if governor else 0.0)

    # -- the day ----------------------------------------------------------

    def run_day(self, jobs: List[CarbonJobSpec]) -> CarbonLedger:
        """Serve every job once, in policy order, on the day clock."""
        ledger = CarbonLedger()
        pending = list(jobs)
        now = 0.0
        while pending:
            released = [j for j in pending if j.release_s <= now]
            if not released:
                now = min(j.release_s for j in pending)
                continue
            job = self.policy.pick(released)
            start = max(now, self.policy.earliest_start(job, now,
                                                        self.platform))
            record = self._run_one(job, start, ledger)
            ledger.add(record)
            pending.remove(job)
            now = record.end_s
        return ledger
