"""The four carbon policies, compared head-to-head.

All four see the same released-job queue on a cluster that runs one
MapReduce job at a time (the paper's clusters are batch-exclusive);
a policy decides *which* released job goes next and *when* it may
start:

* **no-wait** — FIFO at release, start immediately.  The paper's
  behaviour, and the bit-identity baseline: its runs are
  float-for-float the plain ``run_job`` runs.
* **edd** — earliest-deadline-first packing.  Same grams, but the
  deadline-safe ordering the waiting policies build on.
* **threshold** — EDD order, but hold a job until grid intensity dips
  to the day's :data:`THRESHOLD_PCT` percentile, never waiting past
  ``deadline - SAFETY * estimate``.
* **suspend-resume** — start at release, but let a
  :class:`~repro.carbon.governor.CarbonGovernor` park the whole fleet
  (YARN blacklist + admin power-off) while intensity spikes, within
  the job's deadline slack.

The committed plan names its arms by kind; :func:`make_policy`
instantiates the behaviour.
"""

from __future__ import annotations

from typing import List

from .jobspec import CarbonJobSpec
from .trace import SignalTrace

POLICY_KINDS = ("no-wait", "edd", "threshold", "suspend-resume")

#: Intensity percentile above which work is deferred / suspended.
THRESHOLD_PCT = 40.0
#: Deadline guard: never defer past ``deadline - SAFETY * estimate``
#: (estimates are not promises).
SAFETY = 1.2


class SchedulingPolicy:
    """Pick-next and earliest-start for the deferral queue."""

    def __init__(self, intensity: SignalTrace):
        self.intensity = intensity
        #: The day's intensity value at :data:`THRESHOLD_PCT` —
        #: computed once so every decision uses the same bar.
        self.threshold = intensity.percentile(THRESHOLD_PCT)

    def pick(self, released: List[CarbonJobSpec]) -> CarbonJobSpec:
        """Which released job runs next.  Default: FIFO."""
        return min(released, key=lambda j: (j.release_s, j.name))

    def earliest_start(self, job: CarbonJobSpec, now: float,
                       platform: str) -> float:
        """Earliest day-clock start for ``job``.  Default: now."""
        return now

    @property
    def governed(self) -> bool:
        """Whether runs get a suspend-resume governor attached."""
        return False


class NoWaitPolicy(SchedulingPolicy):
    """Run at release, in release order — the paper's behaviour."""


class EddPolicy(SchedulingPolicy):
    """Earliest-deadline-first packing, still starting immediately."""

    def pick(self, released: List[CarbonJobSpec]) -> CarbonJobSpec:
        return min(released,
                   key=lambda j: (j.deadline_s, j.release_s, j.name))


class ThresholdWaitPolicy(EddPolicy):
    """Defer while the grid is dirty, bounded by the deadline guard."""

    def earliest_start(self, job: CarbonJobSpec, now: float,
                       platform: str) -> float:
        latest = job.deadline_s - SAFETY * job.estimate(platform)
        if now >= latest or self.intensity.at(now) <= self.threshold:
            return now
        dip = self.intensity.next_at_or_below(
            self.threshold, now, horizon_s=latest - now)
        # No dip inside the deadline guard: waiting buys nothing.
        return min(latest, dip) if dip is not None else now


class SuspendResumePolicy(EddPolicy):
    """Start immediately; the in-run governor does the deferring."""

    @property
    def governed(self) -> bool:
        return True


_POLICIES = {
    "no-wait": NoWaitPolicy,
    "edd": EddPolicy,
    "threshold": ThresholdWaitPolicy,
    "suspend-resume": SuspendResumePolicy,
}


def make_policy(kind: str, intensity: SignalTrace) -> SchedulingPolicy:
    """Instantiate the policy ``kind`` names."""
    if kind not in _POLICIES:
        raise ValueError(f"unknown policy kind {kind!r} "
                         f"(have {POLICY_KINDS})")
    return _POLICIES[kind](intensity)
