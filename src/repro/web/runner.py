"""High-level web experiment runners: concurrency sweeps for Figures 4-9."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core import paperdata as paper
from ..core.metrics import work_done_per_joule
from . import params as P
from .deployment import WebServiceDeployment
from .httperf import LevelResult

#: Root seed of the concurrency sweeps.
SWEEP_SEED = 20160901


@dataclass(frozen=True)
class SweepResult:
    """One throughput/delay curve: a platform+scale across concurrency."""

    platform: str
    scale: str
    workload: P.WebWorkload
    levels: Tuple[LevelResult, ...]

    def peak_rps(self) -> float:
        """Highest error-free throughput (the paper excludes 5xx levels)."""
        clean = [l for l in self.levels if not l.has_server_errors]
        if not clean:
            return 0.0
        return max(l.requests_per_second for l in clean)

    def max_clean_concurrency(self) -> int:
        """Largest concurrency that produced no server errors."""
        clean = [l.concurrency for l in self.levels
                 if not l.has_server_errors]
        return max(clean) if clean else 0

    def mean_power_at_peak(self) -> float:
        clean = [l for l in self.levels if not l.has_server_errors]
        best = max(clean, key=lambda l: l.requests_per_second)
        return best.mean_power_w


def sweep_concurrency(platform: str, scale: str = "full",
                      workload: Optional[P.WebWorkload] = None,
                      levels: Sequence[int] = paper.S51_CONCURRENCY_LEVELS,
                      duration: float = 4.0,
                      warmup: float = 1.0) -> SweepResult:
    """Run one full Figure 4/7-style curve.

    Each level gets a fresh deployment (clean TIME_WAIT state), exactly
    as the paper restarts each 3-minute test, seeded
    ``SWEEP_SEED + concurrency``.
    """
    workload = workload if workload is not None else P.WebWorkload()
    results: List[LevelResult] = []
    for concurrency in levels:
        deployment = WebServiceDeployment(
            platform, scale, workload, seed=SWEEP_SEED + concurrency)
        for node in deployment.web_nodes:
            node.record_log_enabled = False
        results.append(deployment.run_level(
            concurrency, duration=duration, warmup=warmup))
    return SweepResult(platform=platform, scale=scale, workload=workload,
                       levels=tuple(results))


def energy_efficiency_ratio(edison: SweepResult, dell: SweepResult) -> float:
    """Peak requests-per-joule ratio, Edison over Dell (the 3.5x claim)."""
    edison_rpj = work_done_per_joule(edison.peak_rps(),
                                     edison.mean_power_at_peak())
    dell_rpj = work_done_per_joule(dell.peak_rps(), dell.mean_power_at_peak())
    return edison_rpj / dell_rpj
