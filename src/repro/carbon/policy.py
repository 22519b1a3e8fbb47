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
  to the day's ``threshold_pct`` percentile, never waiting past
  ``deadline - safety * estimate``.
* **suspend-resume** — start at release, but let a
  :class:`~repro.carbon.governor.CarbonGovernor` park the whole fleet
  (YARN blacklist + admin power-off) while intensity spikes, within
  the job's deadline slack.

A :class:`PolicySpec` is the serialisable knob set (one per arm in the
committed plan); :func:`make_policy` instantiates the behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional

from ..autoscale.config import DEFAULT_BOOT_S
from ..core.records import Record
from .jobspec import CarbonJobSpec
from .trace import SignalTrace

POLICY_KINDS = ("no-wait", "edd", "threshold", "suspend-resume")


@dataclass(frozen=True)
class PolicySpec(Record):
    """Serialisable configuration of one scheduling arm."""

    kind: str = "no-wait"
    #: Intensity percentile above which work is deferred / suspended.
    threshold_pct: float = 60.0
    #: Deadline guard: never defer past ``deadline - safety * est``.
    safety: float = 1.2
    #: Governor tick (suspend-resume only).
    check_interval_s: float = 20.0
    #: Reboot wall-time per platform after an admin power-off.
    boot_s: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_BOOT_S))

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r} "
                             f"(have {POLICY_KINDS})")
        if not 0 <= self.threshold_pct <= 100:
            raise ValueError("threshold_pct must be in [0, 100]")
        if self.safety < 1.0:
            raise ValueError("safety must be >= 1 (estimates are not "
                             "promises)")
        if self.check_interval_s <= 0:
            raise ValueError("check_interval_s must be > 0")
        for platform, boot in self.boot_s.items():
            if boot < 0:
                raise ValueError(f"boot_s[{platform!r}] must be >= 0")


class SchedulingPolicy:
    """Pick-next and earliest-start for the deferral queue."""

    def __init__(self, spec: PolicySpec, intensity: SignalTrace):
        self.spec = spec
        self.intensity = intensity
        #: The day's intensity value at the configured percentile —
        #: computed once so every decision uses the same bar.
        self.threshold = intensity.percentile(spec.threshold_pct)

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
        latest = job.deadline_s - self.spec.safety * job.estimate(platform)
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

    def boot_s(self, platform: str) -> float:
        return self.spec.boot_s.get(platform, 0.0)


_POLICIES = {
    "no-wait": NoWaitPolicy,
    "edd": EddPolicy,
    "threshold": ThresholdWaitPolicy,
    "suspend-resume": SuspendResumePolicy,
}


def make_policy(spec: PolicySpec, intensity: SignalTrace,
                kind: Optional[str] = None) -> SchedulingPolicy:
    """Instantiate the behaviour for ``spec`` (or an explicit kind)."""
    return _POLICIES[kind if kind is not None else spec.kind](
        spec, intensity)
