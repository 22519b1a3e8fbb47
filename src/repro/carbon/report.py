"""The eight-arm headline experiment: four policies x two platforms.

One committed, seeded day of deferrable TeraSort/WikiDB jobs under a
committed duck-curve intensity trace and a time-of-use tariff, served
by every policy on both clusters.  Each arm reports the same
currencies — joules, grams CO2, dollars, wait hours, deadline misses —
so the report can answer the two questions the paper could not ask:

* does deferring work to cleaner grid-seconds beat running at release
  (policy vs no-wait, per platform), and
* does the Edison's efficiency edge grow or shrink when the *grid*
  sets the price (Edison vs R620, per policy)?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.records import Record, decoded, domain, find, many
from .jobspec import CarbonJobSpec
from .ledger import CarbonLedger
from .policy import POLICY_KINDS
from .scheduler import CarbonScheduler
from .trace import SignalTrace

#: Seed of the committed day (CI smoke + docs), same spirit as
#: repro.autoscale's DAY_SEED and repro.resilience's GRAY_SEED.
DAY_SEED = 20260809

#: The platforms every committed day compares.
PLATFORMS = ("edison", "dell")


@dataclass(frozen=True)
class CarbonDayPlan(Record):
    """One committed, seeded carbon day: jobs, signals, arms.

    ``seed`` and ``jobs`` are keyword-only so the fields keep the
    committed plan's key order.
    """

    name: str
    day_s: float = domain("> 0")
    seed: int = domain(">= 0", integer=True, default=DAY_SEED, kw_only=True)
    intensity: SignalTrace = decoded(SignalTrace.from_dict)
    price: SignalTrace = decoded(SignalTrace.from_dict)
    slaves: Mapping[str, int] = domain(
        "> 0", integer=True, default_factory=lambda: {"edison": 4, "dell": 2})
    #: Policy kind names, one arm each per platform.
    policies: Tuple[str, ...] = decoded(tuple, default=POLICY_KINDS)
    jobs: Tuple[CarbonJobSpec, ...] = decoded(many(CarbonJobSpec.from_dict),
                                              kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        if not self.jobs:
            raise ValueError("a day needs at least one job")
        if not self.policies:
            raise ValueError("a day needs at least one policy arm")
        if len(set(self.policies)) != len(self.policies):
            raise ValueError("duplicate policy kinds in one plan")
        for kind in self.policies:
            if kind not in POLICY_KINDS:
                raise ValueError(f"unknown policy kind {kind!r} "
                                 f"(have {POLICY_KINDS})")
        for platform in PLATFORMS:
            if platform not in self.slaves:
                raise ValueError(f"need slaves[{platform!r}]")
        for job in self.jobs:
            if job.deadline_s > self.day_s:
                raise ValueError(f"job {job.name!r} deadline exceeds "
                                 "the day")


@dataclass(frozen=True)
class CarbonArm(Record):
    """One (policy, platform) day, fully accounted."""

    policy: str
    platform: str
    joules: float
    grams_co2: float
    energy_usd: float
    wait_hours: float
    deadline_misses: int
    suspensions: int = 0
    suspended_s: float = 0.0
    records: Tuple[Dict, ...] = decoded(tuple, default_factory=tuple)
    actions: Tuple[Dict, ...] = decoded(tuple, default_factory=tuple)

    @classmethod
    def from_ledger(cls, policy: str, platform: str,
                    ledger: CarbonLedger) -> "CarbonArm":
        return cls(policy=policy, platform=platform,
                   joules=ledger.joules, grams_co2=ledger.grams_co2,
                   energy_usd=ledger.energy_usd,
                   wait_hours=ledger.wait_hours,
                   deadline_misses=ledger.deadline_misses,
                   suspensions=ledger.suspensions,
                   suspended_s=ledger.suspended_s,
                   records=tuple(r.to_dict() for r in ledger.records),
                   actions=tuple(a.to_dict() for a in ledger.actions))


@dataclass(frozen=True)
class CarbonReport(Record):
    """All arms side by side, with the dominance and platform verdicts."""

    derived = ("dominating_policies", "platform_delta")

    plan_name: str
    detail: str
    arms: Tuple[CarbonArm, ...] = decoded(many(CarbonArm.from_dict))

    def arm(self, policy: str, platform: str) -> CarbonArm:
        return find(self.arms, policy=policy, platform=platform)

    def platforms(self) -> List[str]:
        seen: List[str] = []
        for arm in self.arms:
            if arm.platform not in seen:
                seen.append(arm.platform)
        return seen

    @property
    def dominating_policies(self) -> Dict[str, List[str]]:
        """Per platform, the policies that beat no-wait on grams at
        zero deadline misses."""
        out = {}
        for platform in self.platforms():
            base = self.arm("no-wait", platform)
            out[platform] = [arm.policy for arm in self.arms
                             if arm.platform == platform
                             and arm.policy != "no-wait"
                             and arm.deadline_misses == 0
                             and arm.grams_co2 < base.grams_co2]
        return out

    def best_arm(self, platform: str) -> CarbonArm:
        """Lowest-gram arm with zero misses (no-wait included)."""
        eligible = [arm for arm in self.arms
                    if arm.platform == platform
                    and arm.deadline_misses == 0]
        if not eligible:
            raise ValueError(f"every {platform!r} arm missed a deadline")
        return min(eligible, key=lambda a: (a.grams_co2, a.policy))

    def grams_saved(self, platform: str) -> float:
        """Best policy's grams saved vs no-wait on ``platform``."""
        base = self.arm("no-wait", platform)
        return base.grams_co2 - self.best_arm(platform).grams_co2

    def platform_delta(self) -> Optional[Dict[str, float]]:
        """Edison-vs-R620: the grams ratio at release and at best.

        ``no_wait_ratio`` is how many times more CO2 the Dell day emits
        when both run at release; ``best_ratio`` re-asks with each
        platform on its own best zero-miss policy.  The gap between the
        two is whether carbon-aware scheduling widens or narrows the
        micro-server edge.
        """
        if not ("edison" in self.platforms()
                and "dell" in self.platforms()):
            return None
        edison_base = self.arm("no-wait", "edison").grams_co2
        dell_base = self.arm("no-wait", "dell").grams_co2
        edison_best = self.best_arm("edison").grams_co2
        dell_best = self.best_arm("dell").grams_co2
        if min(edison_base, edison_best) <= 0:
            return None
        return {"no_wait_ratio": dell_base / edison_base,
                "best_ratio": dell_best / edison_best,
                "edison_grams_saved": self.grams_saved("edison"),
                "dell_grams_saved": self.grams_saved("dell")}

    def lines(self) -> List[str]:
        """The four-policy table per platform, CLI/docs-ready."""
        out = [f"Carbon day — {self.plan_name} ({self.detail})"]
        for platform in self.platforms():
            arms = [arm for arm in self.arms if arm.platform == platform]
            out.append(f"  {platform}:")
            out.append("    " + f"{'':16s}"
                       + "".join(f"{arm.policy:>16s}" for arm in arms))

            def row(name: str, fmt) -> None:
                out.append("    " + f"{name:16s}"
                           + "".join(f"{fmt(a):>16s}" for a in arms))

            row("energy", lambda a: f"{a.joules:.0f} J")
            row("grams CO2", lambda a: f"{a.grams_co2:.3f} g")
            row("electricity", lambda a: f"${a.energy_usd:.6f}")
            row("wait", lambda a: f"{a.wait_hours * 60:.1f} min")
            row("deadline misses", lambda a: f"{a.deadline_misses}")
            row("suspensions", lambda a: f"{a.suspensions}")
            dominating = self.dominating_policies[platform]
            best = self.best_arm(platform)
            saved = self.grams_saved(platform)
            base = self.arm("no-wait", platform)
            pct = (100.0 * saved / base.grams_co2
                   if base.grams_co2 > 0 else 0.0)
            if dominating:
                out.append(f"    verdict: {', '.join(dominating)} beat "
                           f"no-wait; best is {best.policy} "
                           f"(-{saved:.3f} g, -{pct:.1f}%, 0 misses)")
            else:
                out.append("    verdict: no policy beat no-wait")
        delta = self.platform_delta()
        if delta is not None:
            out.append(
                f"  Edison vs R620: the Dell day emits "
                f"{delta['no_wait_ratio']:.2f}x Edison's CO2 at release, "
                f"{delta['best_ratio']:.2f}x with each fleet on its best "
                f"policy")
        return out


# -- running the experiment ----------------------------------------------


def carbon_experiment(plan: CarbonDayPlan) -> CarbonReport:
    """Run the committed day every way and report all arms."""
    arms: List[CarbonArm] = []
    for platform in PLATFORMS:
        if platform not in plan.slaves:
            continue
        for policy in plan.policies:
            scheduler = CarbonScheduler(
                platform, plan.slaves[platform], policy,
                plan.intensity, plan.price, seed=plan.seed)
            ledger = scheduler.run_day(list(plan.jobs))
            arms.append(CarbonArm.from_ledger(policy, platform, ledger))
    mean_i = plan.intensity.mean()
    return CarbonReport(
        plan_name=plan.name,
        detail=f"{plan.day_s:.0f} s day, {len(plan.jobs)} deferrable "
               f"jobs, mean grid {mean_i:.0f} {plan.intensity.unit}, "
               f"seed {plan.seed}",
        arms=tuple(arms))
