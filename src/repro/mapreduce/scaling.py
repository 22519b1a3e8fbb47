"""Section 5.3 scalability experiments: Table 8 / Figures 18-19 grids."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from ..core import paperdata as paper
from ..core.metrics import mean_speedup_across_jobs
from .jobs import JOB_FACTORIES, TABLE8_JOBS
from .runtime import JobReport, run_job

#: The cluster-size ladders of Table 8 / Figures 18-19.
EDISON_SIZES = (35, 17, 8, 4)
DELL_SIZES = (2, 1)


@dataclass(frozen=True)
class ScalingGrid:
    """All job runs for one platform ladder."""

    platform: str
    reports: Mapping[str, Mapping[int, JobReport]]   # job -> size -> report

    def times(self, job: str) -> Dict[int, float]:
        return {size: report.seconds
                for size, report in self.reports[job].items()}

    def mean_speedup(self) -> float:
        """Mean speed-up per cluster doubling across jobs (S5.3)."""
        return mean_speedup_across_jobs(
            {job: self.times(job) for job in self.reports})


def run_scaling_grid(platform: str) -> ScalingGrid:
    """Run every Table 8 job at every size of ``platform``'s ladder."""
    sizes = EDISON_SIZES if platform == "edison" else DELL_SIZES
    reports: Dict[str, Dict[int, JobReport]] = {}
    for job in TABLE8_JOBS:
        reports[job] = {}
        for size in sizes:
            spec, config = JOB_FACTORIES[job](platform, size)
            reports[job][size] = run_job(platform, size, spec, config=config)
    return ScalingGrid(platform=platform, reports=reports)


def paper_times(job: str, platform: str) -> Dict[int, float]:
    """Table 8's published run times for one job/platform."""
    return {size: result.seconds
            for size, result in paper.T8[job][platform].items()}


def paper_mean_speedup(platform: str) -> float:
    """S5.3's published mean speed-up recomputed from Table 8."""
    return mean_speedup_across_jobs(
        {job: paper_times(job, platform) for job in TABLE8_JOBS})
