"""The suspend-resume governor: parking a running cluster mid-job.

One in-simulation process per governed run.  Every
:data:`CHECK_INTERVAL_S` it reads the day's intensity trace at the job's
*day* clock (run offset + local sim time) and flips the whole slave
fleet between service and the PR 6 admin power states through
:meth:`JobRunner.suspend_workers` / :meth:`JobRunner.resume_workers`.

Suspension time is budgeted, not optimistic: the job's deadline slack
beyond ``SAFETY * estimate`` is the total the governor may spend
parked (boot time included), so a governed run can wait out a dirty
grid but cannot talk itself into a deadline miss.  Every flip is
timestamped into the :class:`~repro.carbon.ledger.CarbonLedger`'s
action log.
"""

from __future__ import annotations

from ..hardware.profiles import BOOT_S
from .jobspec import CarbonJobSpec
from .policy import SAFETY, SuspendResumePolicy
from .trace import SignalTrace

#: Seconds between the governor's intensity checks.
CHECK_INTERVAL_S = 20.0


class CarbonGovernor:
    """Intensity-driven suspend/resume for one MapReduce run."""

    def __init__(self, runner, job: CarbonJobSpec, policy:
                 SuspendResumePolicy, intensity: SignalTrace,
                 start_day_s: float, ledger=None):
        self.runner = runner
        self.job = job
        self.policy = policy
        self.intensity = intensity
        self.start_day_s = start_day_s
        self.ledger = ledger
        self.boot_s = BOOT_S.get(runner.platform, 0.0)
        #: Total seconds the governor may keep the fleet parked.
        self.budget_s = max(0.0, (job.deadline_s - start_day_s)
                            - SAFETY * job.estimate(runner.platform))
        self.suspensions = 0
        self.suspended_s = 0.0
        self._suspended = False

    def _day_now(self) -> float:
        return self.start_day_s + self.runner.sim.now

    def _dirty(self) -> bool:
        return self.intensity.at(self._day_now()) > self.policy.threshold

    def _log(self, action: str) -> None:
        if self.ledger is not None:
            self.ledger.log_action(self._day_now(), self.job.name, action)

    def run(self):
        """Process generator: tick, compare, flip."""
        # A suspend must be worth its boot: require budget for the
        # reboot plus at least one parked interval before committing.
        min_park = self.boot_s + 2 * CHECK_INTERVAL_S
        while True:
            yield CHECK_INTERVAL_S
            if not self._suspended:
                if self._dirty() and self.budget_s >= min_park:
                    self.runner.suspend_workers()
                    self._suspended = True
                    self.suspensions += 1
                    self._log("suspend")
                continue
            # Parked: the tick itself consumes budget.
            self.budget_s -= CHECK_INTERVAL_S
            self.suspended_s += CHECK_INTERVAL_S
            if not self._dirty() or self.budget_s <= min_park:
                self.budget_s -= self.boot_s
                self.suspended_s += self.boot_s
                yield from self.runner.resume_workers(self.boot_s)
                self._suspended = False
                self._log("resume")

    def attach(self) -> None:
        """Spawn the governor process inside the runner's simulation."""
        self.runner.sim.process(self.run(),
                                name=f"carbon-governor-{self.job.name}")
