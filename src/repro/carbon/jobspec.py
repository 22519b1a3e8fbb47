"""Deferrable work: MapReduce jobs with release times and deadlines.

A :class:`CarbonJobSpec` wraps one of the repo's MapReduce jobs in the
three numbers a deferral policy needs: when the job *may* start
(release), when it *must* finish (deadline), and how long it is
expected to run on each platform (the estimate the policies budget
waiting and suspension time against — measured once at plan-build time
and committed with the plan, like any other calibration constant).

``CARBON_JOB_KINDS`` maps a kind name to a factory producing the
concrete ``(JobSpec, HadoopConfig)`` at the compressed-day scale the
committed experiment uses: a mini TeraSort (the paper's most
shuffle-bound job) and a scan over a WikiDB-shaped sample (the paper's
web-serving dataset put through batch analytics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Tuple

from ..core.records import Record, domain
from ..mapreduce.config import HadoopConfig
from ..mapreduce.jobs.catalogue import terasort_mini_job, wikidb_scan_job
from ..mapreduce.runtime import JobSpec


CARBON_JOB_KINDS: Dict[str, Callable[[str], Tuple[JobSpec, HadoopConfig]]] \
    = {
        "terasort-mini": terasort_mini_job,
        "wikidb-scan": wikidb_scan_job,
    }


@dataclass(frozen=True)
class CarbonJobSpec(Record):
    """One deferrable job in the day's workload."""

    name: str
    kind: str                       # key into CARBON_JOB_KINDS
    release_s: float = domain(">= 0")   # earliest allowed start (day clock)
    deadline_s: float = domain("> 0")   # must finish by (day clock)
    #: Expected runtime per platform, simulated seconds — the committed
    #: calibration the policies budget against.
    est_s: Mapping[str, float] = domain("> 0", default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in CARBON_JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r} "
                             f"(have {sorted(CARBON_JOB_KINDS)})")
        if self.deadline_s <= self.release_s:
            raise ValueError("deadline_s must be > release_s")

    def build(self, platform: str) -> Tuple[JobSpec, HadoopConfig]:
        """Materialise the underlying MapReduce job for ``platform``."""
        return CARBON_JOB_KINDS[self.kind](platform)

    def estimate(self, platform: str) -> float:
        """The committed runtime estimate for ``platform``."""
        if platform not in self.est_s:
            raise KeyError(f"no runtime estimate for {platform!r} on "
                           f"job {self.name!r}")
        return self.est_s[platform]
