"""Evaluation metrics: work-done-per-joule, speed-ups, comparisons."""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence


def work_done_per_joule(work_units: float, joules: float) -> float:
    """The paper's headline metric."""
    if joules <= 0:
        raise ValueError("joules must be > 0")
    return work_units / joules


def efficiency_ratio(contender_joules: float, baseline_joules: float) -> float:
    """How many times less energy the contender needs for equal work."""
    if contender_joules <= 0 or baseline_joules <= 0:
        raise ValueError("energies must be > 0")
    return baseline_joules / contender_joules


def speedup_per_doubling(times_by_size: Mapping[int, float]) -> float:
    """Mean speed-up when the cluster size doubles (Section 5.3).

    ``times_by_size`` maps cluster size to job time.  Consecutive sizes
    in the paper's ladders differ by ~2x (35/17/8/4, 2/1); each step's
    speed-up is normalised to an exact doubling via the size ratio, and
    the geometric mean over steps is returned.
    """
    if len(times_by_size) < 2:
        raise ValueError("need at least two cluster sizes")
    sizes = sorted(times_by_size)
    steps = []
    for small, big in zip(sizes, sizes[1:]):
        ratio = times_by_size[small] / times_by_size[big]
        size_ratio = big / small
        steps.append(ratio ** (math.log(2) / math.log(size_ratio)))
    product = 1.0
    for step in steps:
        product *= step
    return product ** (1.0 / len(steps))


def mean_speedup_across_jobs(
        per_job_times: Mapping[str, Mapping[int, float]]) -> float:
    """Average of per-job doubling speed-ups (the paper's 1.90 / 2.07)."""
    if not per_job_times:
        raise ValueError("need at least one job")
    speedups = [speedup_per_doubling(times)
                for times in per_job_times.values()]
    return sum(speedups) / len(speedups)


def relative_error(measured: float, expected: float) -> float:
    """Signed relative deviation of a measurement from the paper value."""
    if expected == 0:
        raise ValueError("expected value must be nonzero")
    return (measured - expected) / expected


def within_band(measured: float, expected: float, tolerance: float) -> bool:
    """True when ``measured`` is within ±tolerance of ``expected``."""
    return abs(relative_error(measured, expected)) <= tolerance


def nearest_rank_p95(samples: Sequence[float]) -> Optional[float]:
    """Nearest-rank 95th percentile, or ``None`` with no samples."""
    if not samples:
        return None
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]
