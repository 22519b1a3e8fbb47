"""The energy-proportionality scorecard (Barroso & Hölzle, restated).

The paper's Table 3 power models are linear-with-offset: a server
burns ``idle_w`` doing nothing and climbs to ``max_w`` at full load.
How *proportional* that makes a fleet — and how much a frequency
governor improves it — is summarised here by driving one deployment
at a ladder of fixed offered rates (10 %..100 % of its tuned
capacity) and reading three figures off the measured powers:

* **dynamic range** — ``(P_peak - P_idle) / P_peak``; the share of
  peak power that actually responds to load (1.0 is perfect, the
  Edison's big idle floor drags it down);
* **proportionality gap** — the mean over load points of
  ``(P(u) - u * P_peak) / P_peak``, the normalised excess over the
  ideal origin-crossing line ``P(u) = u * P_peak`` (0 is perfectly
  proportional; the linear-with-offset model makes it positive and
  largest at low load);
* **work per joule** — ok calls per joule at each rung, the currency
  the paper's Figures 9/11 trade in.

Each rung is one fresh seeded deployment driven at a flat rate, so a
scorecard is reproducible the way every other committed experiment
here is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core.records import Record, decoded, domain, many

#: Seed of the committed DVFS experiments (scorecards and the
#: governor sweep), same spirit as repro.autoscale's DAY_SEED.
DVFS_SEED = 41

#: The load ladder: 10 %..100 % of tuned capacity.
LOAD_FRACTIONS = tuple(round(0.1 * i, 1) for i in range(1, 11))
#: Each rung's simulated run and the warmup it discards (seconds).
RUNG_S = 3.0
RUNG_WARMUP_S = 1.0


@dataclass(frozen=True)
class LoadPoint(Record):
    """One rung of the ladder: a flat-rate run at ``fraction`` load."""

    derived = ("joules", "work_per_joule")

    fraction: float = domain("> 0")
    offered_rps: float = domain(">= 0")
    ok_calls: int = domain(">= 0", integer=True)
    window_s: float = domain(">= 0")
    mean_power_w: float = domain(">= 0")

    @property
    def joules(self) -> float:
        return self.mean_power_w * self.window_s

    @property
    def work_per_joule(self) -> float:
        if self.joules <= 0:
            return 0.0
        return self.ok_calls / self.joules


@dataclass(frozen=True)
class ProportionalityScorecard(Record):
    """One platform/governor pair's ladder, with the derived figures."""

    derived = ("peak_w", "dynamic_range", "proportionality_gap")

    platform: str
    scale: str
    governor: str            # "nominal" when no DVFS plane was attached
    idle_w: float = domain(">= 0")
    points: Tuple[LoadPoint, ...] = decoded(many(LoadPoint.from_dict))

    def __post_init__(self):
        super().__post_init__()
        if not self.points:
            raise ValueError("a scorecard needs at least one load point")

    @property
    def peak_w(self) -> float:
        """Measured mean power at the highest rung."""
        return max(self.points, key=lambda p: p.fraction).mean_power_w

    @property
    def dynamic_range(self) -> float:
        peak = self.peak_w
        if peak <= 0:
            return 0.0
        return (peak - self.idle_w) / peak

    @property
    def proportionality_gap(self) -> float:
        peak = self.peak_w
        if peak <= 0:
            return 0.0
        return sum((p.mean_power_w - p.fraction * peak) / peak
                   for p in self.points) / len(self.points)

    @property
    def best_point(self) -> LoadPoint:
        """The rung with the highest work per joule."""
        return max(self.points, key=lambda p: p.work_per_joule)

    def lines(self) -> List[str]:
        out = [f"Energy proportionality — {self.platform} {self.scale}, "
               f"governor {self.governor}"]
        out.append(f"  idle {self.idle_w:.2f} W, peak {self.peak_w:.2f} W, "
                   f"dynamic range {self.dynamic_range:.3f}, "
                   f"proportionality gap {self.proportionality_gap:.3f}")
        out.append(f"  {'load':>6s} {'rps':>8s} {'power':>9s} "
                   f"{'calls/kJ':>9s}")
        best = self.best_point
        for point in self.points:
            marker = "  <- best" if point is best else ""
            out.append(f"  {point.fraction:>5.0%} "
                       f"{point.offered_rps:>8.0f} "
                       f"{point.mean_power_w:>7.2f} W "
                       f"{point.work_per_joule * 1000:>9.0f}{marker}")
        return out


def measure_proportionality(platform: str, scale: str = "1/8",
                            dvfs=None, seed: int = DVFS_SEED,
                            calls: int = 5) -> ProportionalityScorecard:
    """Drive the load ladder and return the platform's scorecard.

    Each rung of :data:`LOAD_FRACTIONS` is a fresh
    :class:`~repro.web.WebServiceDeployment` served at a flat
    ``fraction * target_rps()`` rate for :data:`RUNG_S` simulated
    seconds.  Passing a
    :class:`~repro.dvfs.governor.DvfsConfig` attaches a telemetry plane
    and a :class:`~repro.dvfs.plane.DvfsPlane` over the metered
    servers, so the ladder measures the governed fleet; without one
    the ladder measures the nominal hardware.
    """
    from ..telemetry import Telemetry       # deferred: import cycle
    from ..web import WebServiceDeployment
    from ..web.loadshape import DiurnalShape, ShapedLoad
    from .plane import attach_web

    points = []
    for fraction in LOAD_FRACTIONS:
        deployment = WebServiceDeployment(platform, scale, seed=seed)
        rate = fraction * deployment.target_rps()
        if dvfs is not None:
            telemetry = Telemetry()
            telemetry.attach_web(deployment, until=RUNG_S)
            attach_web(deployment, dvfs, until=RUNG_S, telemetry=telemetry)
        shape = ShapedLoad(DiurnalShape(base_rps=rate, peak_rps=rate,
                                        period_s=RUNG_S))
        level = deployment.run_shaped(shape, RUNG_S, warmup=RUNG_WARMUP_S,
                                      calls=calls)
        points.append(LoadPoint(fraction=fraction, offered_rps=rate,
                                ok_calls=level.ok_calls,
                                window_s=level.window_s,
                                mean_power_w=level.mean_power_w))
        idle_w = deployment.cluster.idle_watts()
    return ProportionalityScorecard(
        platform=platform, scale=scale,
        governor="nominal" if dvfs is None else dvfs.kind,
        idle_w=idle_w, points=tuple(points))
