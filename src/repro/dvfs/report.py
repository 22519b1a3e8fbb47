"""The governor sweep: governor × platform × load shape.

One committed seeded plan drives three day shapes — a fixed moderate
rate, a diurnal swing, and a diurnal day with a flash crowd — against
both platforms under all three governors.  Every arm reports the
paper's currencies (joules, availability, p95) plus the governor's own
bill: transition count and per-state residency.  The headline check is
the DVFS claim itself: on at least one platform/shape pair the
``ondemand`` governor must strictly beat ``performance`` on joules at
equal SLO attainment — frequency scaling that costs availability or
latency has not earned its complexity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple

from ..core.metrics import nearest_rank_p95
from ..core.records import Record, decoded, find, keyed, many
from ..web.loadshape import ShapedLoad
from .governor import DvfsConfig
from .scorecard import DVFS_SEED, ProportionalityScorecard

#: Sweep axes: every governor against every platform and shape.
GOVERNORS = ("performance", "powersave", "ondemand")
PLATFORMS = ("edison", "dell")


@dataclass(frozen=True)
class DvfsPlan(Record):
    """One committed, seeded governor sweep."""

    name: str
    #: Shape name -> rate function.
    shapes: Mapping[str, ShapedLoad] = decoded(keyed(ShapedLoad.from_dict))
    duration_s: float
    seed: int = DVFS_SEED
    calls: int = 5
    edison_scale: str = "1/8"
    dell_scale: str = "1/2"

    def __post_init__(self):
        if not self.shapes:
            raise ValueError("the plan needs at least one load shape")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        if self.calls < 1:
            raise ValueError("calls must be >= 1")

    def scale(self, platform: str) -> str:
        return self.edison_scale if platform == "edison" \
            else self.dell_scale

    def config(self, governor: str) -> DvfsConfig:
        return DvfsConfig(kind=governor)


@dataclass(frozen=True)
class DvfsArm(Record):
    """One governor serving one platform through one shaped day."""

    derived = ("slo_attained", "work_per_joule")

    governor: str
    platform: str
    shape_name: str
    seconds: float
    joules: float
    ok_calls: int
    errors: int
    client_failures: int
    availability: Optional[float]
    availability_met: Optional[bool]
    latency_met: Optional[bool]
    p95_s: Optional[float]
    mean_power_w: float
    transitions: int = 0
    residency_s: Mapping[str, float] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.platform}/{self.shape_name}/{self.governor}"

    @property
    def work_per_joule(self) -> float:
        if self.joules <= 0:
            return 0.0
        return self.ok_calls / self.joules

    @property
    def slo_attained(self) -> bool:
        """Both SLOs met (an unmeasurable SLO counts as met)."""
        return (self.availability_met is not False
                and self.latency_met is not False)


@dataclass(frozen=True)
class DvfsReport(Record):
    """The whole sweep, plus the proportionality scorecards."""

    derived = ("ondemand_wins",)

    plan_name: str
    detail: str
    arms: Tuple[DvfsArm, ...] = decoded(many(DvfsArm.from_dict))
    scorecards: Tuple[ProportionalityScorecard, ...] = decoded(
        many(ProportionalityScorecard.from_dict), default=())

    def arm(self, platform: str, shape_name: str,
            governor: str) -> DvfsArm:
        return find(self.arms, platform=platform, shape_name=shape_name,
                    governor=governor)

    def ondemand_wins(self) -> List[str]:
        """Platform/shape pairs where ondemand strictly beats
        performance on joules at equal-or-better SLO attainment."""
        out = []
        for arm in self.arms:
            if arm.governor != "ondemand":
                continue
            try:
                rival = self.arm(arm.platform, arm.shape_name,
                                 "performance")
            except KeyError:
                continue
            if arm.joules >= rival.joules:
                continue
            if rival.slo_attained and not arm.slo_attained:
                continue
            out.append(f"{arm.platform}/{arm.shape_name}")
        return out

    def lines(self) -> List[str]:
        out = [f"DVFS governor sweep — {self.plan_name} ({self.detail})"]
        out.append(f"  {'arm':34s} {'energy':>9s} {'power':>8s} "
                   f"{'p95':>8s} {'calls/kJ':>9s} {'SLO':>5s} "
                   f"{'switches':>9s}")
        for arm in self.arms:
            p95 = ("n/a" if arm.p95_s is None
                   else f"{arm.p95_s * 1000:.0f} ms")
            out.append(
                f"  {arm.label:34s} {arm.joules:>7.0f} J "
                f"{arm.mean_power_w:>6.1f} W {p95:>8s} "
                f"{arm.work_per_joule * 1000:>9.0f} "
                f"{'met' if arm.slo_attained else 'MISS':>5s} "
                f"{arm.transitions:>9d}")
        wins = self.ondemand_wins()
        if wins:
            out.append("  verdict: ondemand beats performance on joules "
                       "at equal SLO attainment on " + ", ".join(wins))
        else:
            out.append("  verdict: ondemand beats performance nowhere")
        for card in self.scorecards:
            out.extend(card.lines())
        return out


# -- running the sweep ----------------------------------------------------


def _run_arm(plan: DvfsPlan, governor: str, platform: str,
             shape_name: str, shape: ShapedLoad, trace=None) -> DvfsArm:
    from ..telemetry import Telemetry       # deferred: import cycle
    from ..web import WebServiceDeployment
    from .plane import DvfsPlane

    deployment = WebServiceDeployment(platform, plan.scale(platform),
                                      seed=plan.seed, trace=trace)
    telemetry = Telemetry()
    telemetry.attach_web(deployment, until=plan.duration_s)
    plane = DvfsPlane(deployment.sim,
                      deployment.cluster.metered_servers,
                      plan.config(governor), telemetry=telemetry,
                      meter=deployment.meter)
    plane.start(until=plan.duration_s)
    level = deployment.run_shaped(shape, plan.duration_s,
                                  calls=plan.calls, collect_delays=True)
    slo = telemetry.slo_report()
    delays = (deployment.last_driver.delays
              if deployment.last_driver is not None else [])
    return DvfsArm(
        governor=governor, platform=platform, shape_name=shape_name,
        seconds=plan.duration_s,
        joules=deployment.meter.energy_joules(),
        ok_calls=level.ok_calls,
        errors=level.error_calls + level.timeout_calls
        + level.failed_connections,
        client_failures=slo.client_failures,
        availability=slo.availability,
        availability_met=slo.availability_met,
        latency_met=slo.latency_met,
        p95_s=nearest_rank_p95(delays),
        mean_power_w=level.mean_power_w,
        transitions=plane.counters["transitions"],
        residency_s={k: round(v, 6)
                     for k, v in sorted(
                         plane.residency_s(plan.duration_s).items())})


def dvfs_experiment(plan: DvfsPlan,
                    governors: Tuple[str, ...] = GOVERNORS,
                    platforms: Tuple[str, ...] = PLATFORMS,
                    scorecards: bool = True, trace=None) -> DvfsReport:
    """Run the committed sweep and return every arm plus scorecards.

    Scorecards ladder each platform twice — nominal hardware and the
    ondemand governor — so the dashboard can show how much of
    the proportionality gap frequency scaling recovers.
    """
    from .scorecard import measure_proportionality

    arms = tuple(
        _run_arm(plan, governor, platform, shape_name, shape,
                 trace=trace)
        for platform in platforms
        for shape_name, shape in plan.shapes.items()
        for governor in governors)
    cards = ()
    if scorecards:
        cards = tuple(
            measure_proportionality(
                platform, scale=plan.scale(platform), dvfs=dvfs,
                seed=plan.seed, calls=plan.calls)
            for platform in platforms
            for dvfs in (None, plan.config("ondemand")))
    shape_names = ", ".join(plan.shapes)
    return DvfsReport(
        plan_name=plan.name,
        detail=f"{plan.duration_s:.0f} s days ({shape_names}), "
               f"governors {', '.join(governors)}, seed {plan.seed}",
        arms=arms, scorecards=cards)
