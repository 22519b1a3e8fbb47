"""The three-arm headline experiment: Table 10 made dynamic.

One committed seeded day — a diurnal swing with a flash crowd — is
served three ways:

* **static-dell** — the brawny fleet that covers the peak, idling
  through the valley at an R620's 52 W floor;
* **static-edison** — the wimpy fleet sized like a Table 6 ladder
  rung, efficient all day but capped at its aggregate capacity;
* **autoscaled-hybrid** — both platforms in one weighted rotation,
  with the control plane waking and parking nodes as the day moves.

Every arm reports the paper's currencies — joules, availability, p95
— plus dollars through the Section 6 TCO model (amortised hardware +
metered electricity), and the hybrid arm itemises what elasticity
itself cost (boot energy, drained-but-idle energy, the action log).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.metrics import nearest_rank_p95
from ..core.records import Record, decoded, domain, find, many
from ..tco.model import amortized_hardware_usd, energy_cost_usd
from ..web.loadshape import ShapedLoad
from .deployment import HybridWebDeployment

#: Seed of the committed day (CI smoke + docs), same spirit as
#: repro.resilience's GRAY_SEED.
DAY_SEED = 77


@dataclass(frozen=True)
class DayPlan(Record):
    """One committed, seeded diurnal + flash-crowd experiment."""

    name: str
    shape: ShapedLoad = decoded(ShapedLoad.from_dict)
    duration_s: float = domain("> 0")
    seed: int = domain(">= 0", integer=True, default=DAY_SEED)
    calls: int = domain("> 0", integer=True, default=5)
    edison_scale: str = "6x3"       # static-Edison web x cache layout
    dell_scale: str = "1x1"         # static-Dell web x cache layout
    hybrid_edison_web: int = domain(">= 0", integer=True, default=6)
    hybrid_dell_web: int = domain(">= 0", integer=True, default=1)
    hybrid_cache: int = domain("> 0", integer=True, default=3)

    def __post_init__(self):
        super().__post_init__()
        if self.hybrid_edison_web + self.hybrid_dell_web < 1:
            raise ValueError("the hybrid arm needs at least one web "
                             "server across platforms")


@dataclass(frozen=True)
class AutoscaleArm(Record):
    """One provisioning strategy's day, fully accounted."""

    derived = ("total_usd", "work_per_joule")

    label: str
    platform: str
    #: Metered (web + cache) nodes provisioned, by platform.
    nodes: Mapping[str, int]
    seconds: float
    joules: float
    ok_calls: int
    errors: int
    client_failures: int
    availability: Optional[float]
    availability_met: Optional[bool]
    p95_s: Optional[float]
    mean_power_w: float
    hardware_usd: float
    energy_usd: float
    #: Scaling itemisation (autoscaled arm only; zero when static).
    boot_j: float = 0.0
    drain_j: float = 0.0
    counters: Mapping[str, int] = field(default_factory=dict)
    actions: Tuple[Dict, ...] = decoded(tuple, default_factory=tuple)

    @property
    def work_per_joule(self) -> float:
        if self.joules <= 0:
            return 0.0
        return self.ok_calls / self.joules

    @property
    def total_usd(self) -> float:
        return self.hardware_usd + self.energy_usd


@dataclass(frozen=True)
class AutoscaleReport(Record):
    """The three arms side by side, with the dominance verdict."""

    derived = ("dominated_arms",)

    plan_name: str
    detail: str
    arms: Tuple[AutoscaleArm, ...] = decoded(many(AutoscaleArm.from_dict))

    def arm(self, label: str) -> AutoscaleArm:
        return find(self.arms, label=label)

    @property
    def hybrid(self) -> AutoscaleArm:
        return self.arm("autoscaled-hybrid")

    def dominated_arms(self) -> List[str]:
        """Static arms the hybrid strictly beats on joules at
        equal-or-better availability."""
        hybrid = self.hybrid
        out = []
        for arm in self.arms:
            if arm.label == hybrid.label:
                continue
            if hybrid.joules >= arm.joules:
                continue
            if (hybrid.availability is None
                    or arm.availability is None):
                continue
            if hybrid.availability >= arm.availability:
                out.append(arm.label)
        return out

    def lines(self) -> List[str]:
        """The three-arm table, CLI/docs-ready."""
        out = [f"Autoscaling day — {self.plan_name} ({self.detail})"]
        labels = [arm.label for arm in self.arms]
        out.append("  " + f"{'':22s}"
                   + "".join(f"{label:>20s}" for label in labels))

        def row(name: str, fmt) -> None:
            out.append("  " + f"{name:22s}"
                       + "".join(f"{fmt(arm):>20s}" for arm in self.arms))

        def nodes(arm: AutoscaleArm) -> str:
            return "+".join(f"{count} {platform}"
                            for platform, count in sorted(arm.nodes.items()))

        row("fleet (web+cache)", nodes)
        row("energy", lambda a: f"{a.joules:.0f} J")
        row("mean power", lambda a: f"{a.mean_power_w:.1f} W")
        row("ok calls", lambda a: f"{a.ok_calls}")
        row("errors+failures",
            lambda a: f"{a.errors + a.client_failures}")
        row("availability",
            lambda a: ("n/a" if a.availability is None else
                       f"{a.availability:.4%}"
                       + (" met" if a.availability_met else " MISS")))
        row("p95 delay",
            lambda a: ("n/a" if a.p95_s is None
                       else f"{a.p95_s * 1000:.0f} ms"))
        row("calls per kJ", lambda a: f"{a.work_per_joule * 1000:.0f}")
        row("hardware $ (amort.)", lambda a: f"${a.hardware_usd:.4f}")
        row("electricity $", lambda a: f"${a.energy_usd:.4f}")
        row("total $", lambda a: f"${a.total_usd:.4f}")
        hybrid = self.hybrid
        out.append(f"  scaling overhead: boot {hybrid.boot_j:.1f} J, "
                   f"drain {hybrid.drain_j:.1f} J "
                   f"({hybrid.counters.get('boots', 0)} boots, "
                   f"{hybrid.counters.get('drains', 0)} drains, "
                   f"{hybrid.counters.get('drain_timeouts', 0)} drain "
                   f"timeouts)")
        dominated = self.dominated_arms()
        if dominated:
            out.append("  verdict: hybrid dominates "
                       + ", ".join(dominated)
                       + " (fewer joules, >= availability)")
        else:
            out.append("  verdict: hybrid dominates no static arm")
        return out


# -- running the experiment ----------------------------------------------


def _fleet_counts(cluster) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for server in cluster.metered_servers:
        counts[server.platform] = counts.get(server.platform, 0) + 1
    return counts


def _fleet_cost_usd(cluster) -> float:
    return sum(s.spec.node_cost_usd for s in cluster.metered_servers)


def _build_arm(label: str, deployment, telemetry, level,
               duration: float, ledger=None) -> AutoscaleArm:
    slo = telemetry.slo_report()
    joules = deployment.meter.energy_joules()
    delays = (deployment.last_driver.delays
              if deployment.last_driver is not None else [])
    return AutoscaleArm(
        label=label, platform=deployment.platform,
        nodes=_fleet_counts(deployment.cluster),
        seconds=duration, joules=joules,
        ok_calls=level.ok_calls,
        errors=level.error_calls + level.timeout_calls
        + level.failed_connections,
        client_failures=slo.client_failures,
        availability=slo.availability,
        availability_met=slo.availability_met,
        p95_s=nearest_rank_p95(delays),
        mean_power_w=level.mean_power_w,
        hardware_usd=amortized_hardware_usd(
            _fleet_cost_usd(deployment.cluster), duration),
        energy_usd=energy_cost_usd(joules),
        boot_j=ledger.joules["boot"] if ledger is not None else 0.0,
        drain_j=ledger.joules["drain"] if ledger is not None else 0.0,
        counters=dict(ledger.counters) if ledger is not None else {},
        actions=tuple(a.to_dict() for a in ledger.actions)
        if ledger is not None else ())


def autoscale_experiment(plan: DayPlan, trace=None) -> AutoscaleReport:
    """Run the committed day three ways and report all arms."""
    from ..telemetry import Telemetry    # deferred: import cycle
    from ..web import WebServiceDeployment

    def static_arm(label: str, platform: str, scale: str) -> AutoscaleArm:
        deployment = WebServiceDeployment(platform, scale, seed=plan.seed,
                                          trace=trace)
        telemetry = Telemetry()
        telemetry.attach_web(deployment, until=plan.duration_s)
        level = deployment.run_shaped(plan.shape, plan.duration_s,
                                      calls=plan.calls,
                                      collect_delays=True)
        return _build_arm(label, deployment, telemetry, level,
                          plan.duration_s)

    def hybrid_arm() -> AutoscaleArm:
        deployment = HybridWebDeployment(
            edison_web=plan.hybrid_edison_web,
            dell_web=plan.hybrid_dell_web,
            cache=plan.hybrid_cache, seed=plan.seed,
            autoscale=True, trace=trace)
        telemetry = Telemetry()
        telemetry.attach_web(deployment, until=plan.duration_s)
        level = deployment.run_day(plan.shape, plan.duration_s,
                                   calls=plan.calls, collect_delays=True)
        return _build_arm("autoscaled-hybrid", deployment, telemetry,
                          level, plan.duration_s,
                          ledger=deployment.ledger)

    arms = (
        static_arm("static-edison", "edison", plan.edison_scale),
        static_arm("static-dell", "dell", plan.dell_scale),
        hybrid_arm(),
    )
    peak = plan.shape.peak_bound()
    return AutoscaleReport(
        plan_name=plan.name,
        detail=f"{plan.duration_s:.0f} s day, "
               f"{plan.shape.diurnal.base_rps:.0f}-"
               f"{plan.shape.diurnal.peak_rps:.0f} rps diurnal, "
               f"{peak:.0f} rps flash peak, seed {plan.seed}",
        arms=arms)
