#!/usr/bin/env python
"""Plane smoke: off-path bit-identity plus each plane's acceptance bar.

One runner for the six opt-in planes — resilience, autoscale, carbon,
dvfs, durability and causality.  Each plane is checked in two steps:

1. **Off-path fidelity** — with the plane off (``None`` is off, or
   ``False`` for resilience and autoscale, which a bool arms) its
   fidelity digests must equal the committed
   ``experiments/<plane>_baseline.json`` float-for-float (``--update``
   rewrites the baseline instead).  Carbon and causality also run a
   second variant that must agree with the first: a plain run and one
   with an idle empty-plan FaultInjector for carbon, an untraced and a
   traced run for causality.  A plane must be invisible until armed.

2. **Acceptance** — the plane's committed seeded experiment must clear
   the bar its ``accept_*`` function states.  The reports land in
   ``--out-dir`` as artifacts.

Every check prints one ``ok``/``FAIL`` line; the exit code is non-zero
when any check failed.

Run:  PYTHONPATH=src python scripts/run_smoke.py dvfs
      PYTHONPATH=src python scripts/run_smoke.py dvfs --update
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Optional, Tuple

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
EXPERIMENTS = os.path.join(REPO, "experiments")
sys.path.insert(0, os.path.join(REPO, "src"))

_failures = []


def check(ok: bool, what: str) -> None:
    """Print one check line; remember failures for the exit code."""
    print(("  ok  " if ok else "  FAIL") + f"  {what}")
    if not ok:
        _failures.append(what)


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def artifact_path(out_dir: str, name: str) -> str:
    """Resolve an artifact path, creating ``out_dir`` on first use."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def write_artifact(out_dir: str, name: str, payload) -> None:
    """Drop one report JSON into ``out_dir`` and announce it."""
    path = artifact_path(out_dir, name)
    write_json(path, payload)
    print(f"  artifact -> {path}")


def job_digest(report) -> Dict:
    return {"seconds": report.seconds, "joules": report.joules,
            "locality_fraction": report.locality_fraction}


# -- resilience ------------------------------------------------------------


def resilience_digests(resilience):
    """One web level and one job, faults off."""
    from repro.mapreduce import JOB_FACTORIES, JobRunner
    from repro.resilience.report import GRAY_SEED
    from repro.web import WebServiceDeployment

    deployment = WebServiceDeployment("edison", "1/4", seed=GRAY_SEED,
                                      resilience=resilience)
    level = deployment.run_level(24, duration=3.0, warmup=1.0)
    spec, config = JOB_FACTORIES["wordcount2"]("edison", 8)
    runner = JobRunner("edison", 8, config=config, seed=GRAY_SEED,
                       resilience=resilience)
    return {"web": asdict(level), "job": job_digest(runner.run(spec))}


def accept_resilience(args, plain) -> None:
    """Under the committed gray-failure plan the mitigated web arm keeps
    both SLOs where the unmitigated one misses, and the mitigated job
    finishes faster than the unmitigated one, which fails attempts."""
    from repro.faults import FaultPlan
    from repro.resilience import (job_resilience_experiment,
                                  web_resilience_experiment)

    print("gray-failure acceptance (committed plan, committed seed):")
    with open(os.path.join(EXPERIMENTS, "gray_failures.json"),
              encoding="utf-8") as handle:
        plans = json.load(handle)
    web = web_resilience_experiment(plan=FaultPlan.from_dict(plans["web"]))
    job = job_resilience_experiment(plan=FaultPlan.from_dict(plans["job"]))

    check(not (web.unmitigated.availability_met
               and web.unmitigated.latency_met),
          "unmitigated web arm misses an SLO "
          f"(availability {web.unmitigated.availability * 100:.2f}%, "
          f"p95 {web.unmitigated.p95_s * 1000:.0f} ms)")
    check(bool(web.mitigated.availability_met),
          "mitigated web arm meets the availability SLO "
          f"({web.mitigated.availability * 100:.4f}%)")
    check(bool(web.mitigated.latency_met),
          "mitigated web arm keeps p95 under the 3 s bound "
          f"({web.mitigated.p95_s * 1000:.0f} ms)")
    check(job.unmitigated.task_failures > 0,
          f"unmitigated job arm fails task attempts "
          f"({job.unmitigated.task_failures})")
    check(job.mitigated.completed and job.unmitigated.completed,
          "both job arms complete")
    check(job.mitigated.seconds < job.unmitigated.seconds,
          f"speculation beats the straggler "
          f"({job.mitigated.seconds:.0f} s vs "
          f"{job.unmitigated.seconds:.0f} s unmitigated)")
    check(job.mitigated.total_waste_joules > 0,
          f"the job report prices the speculation tax "
          f"({job.mitigated.total_waste_joules:.1f} J)")
    check(web.mitigated.total_waste_joules > 0,
          f"the web report prices the hedge/shed tax "
          f"({web.mitigated.total_waste_joules:.1f} J)")

    write_artifact(args.out_dir, "resilience_web_report.json",
                   web.to_dict())
    write_artifact(args.out_dir, "resilience_job_report.json",
                   job.to_dict())


# -- autoscale -------------------------------------------------------------


def autoscale_digests(autoscale):
    """One fixed-rate level, one shaped static day, one shaped hybrid
    day."""
    from repro.autoscale import HybridWebDeployment
    from repro.autoscale.report import DAY_SEED
    from repro.web import DiurnalShape, ShapedLoad, WebServiceDeployment

    shape = ShapedLoad(DiurnalShape(base_rps=60.0, peak_rps=240.0,
                                    period_s=24.0))
    static = WebServiceDeployment("edison", "1/4", seed=DAY_SEED)
    level = static.run_level(24, duration=3.0, warmup=1.0)
    shaped = WebServiceDeployment("edison", "1/4", seed=DAY_SEED)
    shaped_level = shaped.run_shaped(shape, 24.0, calls=5)
    hybrid = HybridWebDeployment(edison_web=2, dell_web=1, cache=1,
                                 seed=DAY_SEED, autoscale=autoscale)
    hybrid_level = hybrid.run_day(shape, 24.0, calls=5)
    return {"level": asdict(level),
            "shaped": asdict(shaped_level),
            "hybrid": asdict(hybrid_level),
            "hybrid_joules": hybrid.meter.energy_joules()}


def accept_autoscale(args, plain) -> None:
    """On the committed day the autoscaled hybrid strictly dominates a
    static arm on joules at equal-or-better availability, with boot and
    drain joules itemised and non-zero."""
    from repro.autoscale import DayPlan, autoscale_experiment

    print("three-arm acceptance (committed day, committed seed):")
    plan = DayPlan.load(os.path.join(EXPERIMENTS, "autoscale_day.json"))
    report = autoscale_experiment(plan)
    for line in report.lines():
        print("  " + line)

    hybrid = report.hybrid
    dominated = report.dominated_arms()
    check(bool(dominated),
          "hybrid strictly dominates a static arm on joules at "
          f"equal-or-better availability ({', '.join(dominated) or 'none'})")
    check(bool(hybrid.availability_met),
          "hybrid arm meets the availability SLO "
          f"({(hybrid.availability or 0) * 100:.4f}%)")
    check(hybrid.boot_j > 0,
          f"boot energy is itemised ({hybrid.boot_j:.1f} J over "
          f"{hybrid.counters.get('boots', 0)} boots)")
    check(hybrid.drain_j > 0,
          f"drain energy is itemised ({hybrid.drain_j:.1f} J over "
          f"{hybrid.counters.get('drains', 0)} drains)")
    check(hybrid.counters.get("evals", 0) > 0,
          f"the controller evaluated ({hybrid.counters.get('evals', 0)} "
          "ticks)")

    write_artifact(args.out_dir, "autoscale_report.json", report.to_dict())


# -- carbon ----------------------------------------------------------------

CARBON_DAY = os.path.join(EXPERIMENTS, "carbon_day.json")
CARBON_FLEETS = (("edison", 4), ("dell", 2))


def carbon_digests(with_injector: bool):
    """Every committed job kind on both platforms, run outside any
    carbon machinery (optionally with an idle empty-plan injector)."""
    from repro.carbon import CarbonDayPlan
    from repro.carbon.jobspec import CARBON_JOB_KINDS
    from repro.faults import FaultInjector
    from repro.mapreduce.runtime import JobRunner

    seed = CarbonDayPlan.load(CARBON_DAY).seed
    digests = {}
    for kind in sorted(CARBON_JOB_KINDS):
        for platform, slaves in CARBON_FLEETS:
            spec, config = CARBON_JOB_KINDS[kind](platform)
            runner = JobRunner(platform, slaves, config=config, seed=seed)
            if with_injector:
                FaultInjector(runner.cluster)
            report = runner.run(spec)
            digests[f"{kind}/{platform}"] = {
                "seconds": report.seconds, "joules": report.joules,
                "locality": report.locality_fraction}
    return digests


def accept_carbon(args, plain) -> None:
    """The no-wait arm reproduces the plain runs exactly, and on the
    committed day a waiting or suspend-resume policy beats no-wait on
    grams CO2 at zero deadline misses on both platforms, with the
    suspend-resume arm actually suspending and the R620 day emitting
    more CO2 than the Edison day."""
    from repro.carbon import CarbonDayPlan, carbon_experiment

    print("eight-arm acceptance (committed day, committed seed):")
    report = carbon_experiment(CarbonDayPlan.load(CARBON_DAY))
    for line in report.lines():
        print("  " + line)

    print("front-end neutrality (no-wait arm == plain runs):")
    for platform, _ in CARBON_FLEETS:
        arm = report.arm("no-wait", platform)
        neutral = all(
            record["joules"] == plain[f"{record['kind']}/{platform}"]
            ["joules"]
            and record["seconds"]
            == plain[f"{record['kind']}/{platform}"]["seconds"]
            for record in arm.records)
        check(neutral,
              f"no-wait/{platform} per-job seconds+joules equal the "
              "plain runs")

    for platform, _ in CARBON_FLEETS:
        dominating = report.dominating_policies[platform]
        check(bool(dominating),
              f"a policy beats no-wait on grams at 0 misses on "
              f"{platform} ({', '.join(dominating) or 'none'})")
        arm = report.arm("suspend-resume", platform)
        check(arm.suspensions > 0,
              f"suspend-resume/{platform} actually parked the fleet "
              f"({arm.suspensions} suspensions, "
              f"{arm.suspended_s:.0f} s)")
    delta = report.platform_delta()
    check(delta is not None and delta["no_wait_ratio"] > 1.0,
          "the R620 day emits more CO2 than the Edison day "
          + (f"({delta['no_wait_ratio']:.2f}x at release)"
             if delta else "(no delta)"))

    write_artifact(args.out_dir, "carbon_report.json", report.to_dict())


# -- dvfs ------------------------------------------------------------------


def dvfs_digests(dvfs):
    """One fixed-rate web level, one shaped day, one MapReduce job —
    the web runs through the same attach helper the armed path uses,
    so "off" exercises the real integration."""
    from repro.dvfs import DVFS_SEED, attach_web
    from repro.mapreduce import JOB_FACTORIES, JobRunner
    from repro.web import DiurnalShape, ShapedLoad, WebServiceDeployment

    static = WebServiceDeployment("edison", "1/4", seed=DVFS_SEED)
    assert attach_web(static, dvfs, until=3.0) is None
    level = static.run_level(24, duration=3.0, warmup=1.0)

    shape = ShapedLoad(DiurnalShape(base_rps=60.0, peak_rps=240.0,
                                    period_s=24.0))
    shaped = WebServiceDeployment("edison", "1/4", seed=DVFS_SEED)
    assert attach_web(shaped, dvfs, until=24.0) is None
    shaped_level = shaped.run_shaped(shape, 24.0, calls=5)

    spec, config = JOB_FACTORIES["wordcount2"]("edison", 8)
    runner = JobRunner("edison", 8, config=config, seed=DVFS_SEED)
    return {"level": asdict(level),
            "shaped": asdict(shaped_level),
            "job": job_digest(runner.run(spec))}


def render_governed_dashboard(plan, out_dir: str) -> None:
    """One governed diurnal day, dashboarded with its scorecards."""
    from repro.dvfs import attach_web, measure_proportionality
    from repro.telemetry import Telemetry, write_dashboard
    from repro.web import WebServiceDeployment

    shape_name = "diurnal" if "diurnal" in plan.shapes \
        else next(iter(plan.shapes))
    deployment = WebServiceDeployment("edison", plan.scale("edison"),
                                      seed=plan.seed)
    telemetry = Telemetry()
    telemetry.attach_web(deployment, until=plan.duration_s)
    ondemand = plan.config("ondemand")
    attach_web(deployment, ondemand, until=plan.duration_s)
    deployment.run_shaped(plan.shapes[shape_name], plan.duration_s,
                          calls=plan.calls)
    bundle = telemetry.bundle(meta={"experiment": "dvfs",
                                    "shape": shape_name})
    bundle["dvfs"] = {
        "scorecards": [
            measure_proportionality("edison", scale=plan.scale("edison"),
                                    dvfs=dvfs, seed=plan.seed,
                                    calls=plan.calls).to_dict()
            for dvfs in (None, ondemand)]}
    path = artifact_path(out_dir, "dvfs_dashboard.html")
    write_dashboard(bundle, path)
    print(f"  artifact -> {path}")


def accept_dvfs(args, plain) -> None:
    """On the committed sweep ondemand strictly beats performance on
    joules at equal SLO attainment somewhere, ondemand arms switch
    P-states, and the governed proportionality ladder burns fewer joules
    than the nominal one."""
    from repro.dvfs import DvfsPlan, dvfs_experiment

    print("sweep acceptance (committed plan, committed seed):")
    plan = DvfsPlan.load(os.path.join(EXPERIMENTS, "dvfs_day.json"))
    report = dvfs_experiment(plan)
    for line in report.lines():
        print("  " + line)

    wins = report.ondemand_wins()
    check(bool(wins),
          "ondemand strictly beats performance on joules at equal SLO "
          f"attainment ({', '.join(wins) or 'none'})")
    ondemand_arms = [a for a in report.arms if a.governor == "ondemand"]
    check(all(a.transitions > 0 for a in ondemand_arms),
          "every ondemand arm actually switched P-states")
    check(all(a.transitions == 0 for a in report.arms
              if a.governor == "performance"),
          "performance arms never left P0")
    for card in report.scorecards:
        check(0.0 < card.dynamic_range < 1.0,
              f"{card.platform}/{card.governor} dynamic range in (0, 1) "
              f"({card.dynamic_range:.3f})")
    # Gap figures normalise to each card's *own* measured peak, and a
    # governor lowers that peak too — so compare ladders by what they
    # burned, not by their self-normalised shapes.
    nominal = {c.platform: c for c in report.scorecards
               if c.governor == "nominal"}
    governed = {c.platform: c for c in report.scorecards
                if c.governor != "nominal"}
    for platform, card in governed.items():
        rival = nominal.get(platform)
        if rival is not None:
            spent = sum(p.joules for p in card.points)
            rival_spent = sum(p.joules for p in rival.points)
            check(spent < rival_spent,
                  f"{platform}: the governed ladder burns fewer joules "
                  f"({spent:.1f} J vs {rival_spent:.1f} J nominal)")

    write_artifact(args.out_dir, "dvfs_report.json", report.to_dict())
    render_governed_dashboard(plan, args.out_dir)


# -- durability ------------------------------------------------------------


def durability_digests(durability):
    """A plain job, a crash-faulted job and a partitioned job — all
    through the same attach helper the armed path uses, with no phi
    detector, heartbeat feeder, repair monitor or ledger left behind."""
    from repro.durability import DAY_SEED, attach_job
    from repro.faults import FaultInjector
    from repro.faults.models import FaultPlan, node_crash, rack_partition
    from repro.mapreduce import JOB_FACTORIES, JobRunner

    def one_job(faults=None, racks=1):
        spec, config = JOB_FACTORIES["wordcount2"]("dell", 8)
        runner = JobRunner("dell", 8, config=config, seed=DAY_SEED,
                           racks=racks)
        injector = None
        if faults is not None:
            injector = FaultInjector(runner.cluster, faults)
        assert attach_job(runner, durability) is None
        assert getattr(runner, "durability_ledger", None) is None
        assert runner.hdfs.monitor is None
        digest = job_digest(runner.run(spec))
        digest["health"] = runner.hdfs.health_summary()
        if injector is not None:
            slaves = [s.name for s in runner.slave_servers]
            digest["downtime_s"] = sum(
                injector.downtime(n, until=runner.sim.now)
                for n in slaves)
            digest["unreachable_s"] = sum(
                injector.unreachable_time(n, until=runner.sim.now)
                for n in slaves)
        return digest

    crash = FaultPlan(faults=(
        node_crash("dell-slave-3", at=6.0, repair_s=10.0),))
    cut = FaultPlan(faults=(
        rack_partition("dell-rack-0", at=6.0, duration=8.0),))
    return {"plain": one_job(),
            "crashed": one_job(faults=crash),
            "partitioned": one_job(faults=cut, racks=2)}


def accept_durability(args, plain) -> None:
    """The committed day shows the Section 6 knee — rack-aware r=2 on
    Edison loses nothing while r=1 records a loss — with block
    conservation at every census, every zombie killed at heal, and
    partitions adding unreachable-seconds but zero downtime against the
    no-partition controls."""
    from repro.durability import DurabilityPlan, durability_experiment

    print("day acceptance (committed plan, committed seed):")
    plan = DurabilityPlan.load(
        os.path.join(EXPERIMENTS, "durability_day.json"))
    report = durability_experiment(plan)
    for line in report.lines():
        print("  " + line)

    check(report.knee["edison"] == 2,
          "rack-aware r=2 is the durability knee on Edison")
    r2 = report.arm("edison", True, 2)
    check(r2.blocks_lost == 0 and not r2.job_failed,
          "edison rack-aware r=2 finishes the day with zero lost blocks")
    r1 = report.arm("edison", True, 1)
    check(r1.loss_events >= 1,
          f"edison r=1 records a data-loss event "
          f"({r1.blocks_lost} block(s) gone)")
    check(all(a.conservation_violations == 0
              for a in (*report.arms, *report.controls)),
          "created == live + lost at every census on every arm")
    check(all(a.duplicate_kills == a.zombies_started
              for a in (*report.arms, *report.controls)),
          "reconciliation kills every zombie attempt it starts")
    check(report.partition_downtime_clean(),
          "partitions add zero downtime against the no-partition "
          "controls")
    fault_arms = [a for a in report.arms
                  if a.platform in {c.platform for c in report.controls}]
    check(all(a.unreachable_s > 0 for a in fault_arms)
          and all(c.unreachable_s == 0 for c in report.controls),
          "unreachable-seconds accrue on fault arms and never on "
          "controls")
    repairing = [a for a in report.arms
                 if a.replication > 1 and not a.job_failed]
    check(all(a.repairs_completed > 0 for a in repairing),
          "every surviving replicated arm actually re-replicated")
    check(all(a.re_replication_j > 0 for a in repairing),
          "re-replication is billed to the energy ledger")

    write_artifact(args.out_dir, "durability_report.json",
                   report.to_dict())


# -- causality -------------------------------------------------------------

CAUSALITY_SEED = 20160901
CAUSALITY_JOB = "terasort-mini"


def causality_digests(traced: Optional[Dict]):
    """One web level and one terasort-mini job, untraced (``traced`` is
    None) or traced, keeping each run's ``(tracer, cluster)`` in
    ``traced`` by label."""
    from repro.carbon.jobspec import CARBON_JOB_KINDS
    from repro.mapreduce.runtime import JobRunner
    from repro.trace import Tracer
    from repro.web import WebServiceDeployment

    web_tracer = Tracer() if traced is not None else None
    deployment = WebServiceDeployment("edison", "1/4", seed=CAUSALITY_SEED,
                                      trace=web_tracer)
    level = deployment.run_level(24, duration=3.0, warmup=1.0)
    job_tracer = Tracer() if traced is not None else None
    spec, config = CARBON_JOB_KINDS[CAUSALITY_JOB]("edison")
    runner = JobRunner("edison", 4, config=config, seed=CAUSALITY_SEED,
                       trace=job_tracer)
    report = runner.run(spec)
    if traced is not None:
        traced["web"] = (web_tracer, deployment.cluster)
        traced[CAUSALITY_JOB] = (job_tracer, runner.cluster)
    return {"web": asdict(level),
            "job": {"seconds": report.seconds, "joules": report.joules,
                    "locality": report.locality_fraction}}


def check_conservation(label, log, cluster) -> None:
    import repro.causality as causality
    idle = {server.name: server.spec.power.min_w
            for server in cluster.servers.values()}
    attribution = causality.attribute_energy(log, idle_w=idle)
    check(bool(attribution.nodes),
          f"{label}: trace carries per-node power counters "
          f"({len(attribution.nodes)} nodes)")
    worst = 0.0
    matched = True
    for name, acct in sorted(attribution.nodes.items()):
        worst = max(worst, acct.conservation_error_rel)
        metered = cluster.meter.node_energy_joules(name)
        if abs(acct.metered_j - metered) > 1e-9 * max(metered, 1.0):
            matched = False
    check(worst <= 1e-3,
          f"{label}: per-node energy conserves "
          f"(worst error {worst:.2e} <= 1e-3)")
    check(matched,
          f"{label}: attribution integrals equal the PowerMeter's")
    attributed = sum(acct.attributed_j
                     for acct in attribution.nodes.values())
    check(attributed > 0.0,
          f"{label}: marginal joules land on spans "
          f"({attributed:.2f} J attributed)")


def accept_causality(args, traced: Dict) -> None:
    """On the traced runs ``baseline + attributed + unattributed`` equals
    each metered node's joules within 0.1 %, the Table 7 decomposition
    re-derived from causal tree structure agrees with the call-record
    measurement within 1 %, and the latency flame graph of the traced
    web run lands in ``--out-dir`` non-empty."""
    import repro.causality as causality
    from repro.trace import Tracer, delay_decomposition_from_trace
    from repro.web.deployment import measure_delay_decomposition

    print("energy conservation (attribution sums close):")
    for label, (tracer, cluster) in traced.items():
        check_conservation(label, tracer.log, cluster)

    print("critical-path decomposition (Table 7 from tree structure):")
    t7_tracer = Tracer()
    measured = measure_delay_decomposition("edison", 480, duration=2.0,
                                           warmup=0.5, trace=t7_tracer)
    flat = delay_decomposition_from_trace(t7_tracer.log, after=0.5)
    tree = causality.decomposition_from_critical_paths(t7_tracer.log,
                                                       after=0.5)
    check(tree.requests == flat.requests,
          f"tree walk counts the same requests ({tree.requests})")
    agree = True
    for field, want in (("db_delay_s", measured.db_delay_s),
                        ("cache_delay_s", measured.cache_delay_s),
                        ("total_delay_s", measured.total_delay_s)):
        got = getattr(tree, field)
        if abs(got - want) > 0.01 * abs(want):
            agree = False
    check(agree,
          "tree-derived db/cache/total agree with the call-record "
          f"measurement within 1% (db {tree.db_delay_s * 1e3:.3f} vs "
          f"{measured.db_delay_s * 1e3:.3f} ms)")

    print("flame artifacts:")
    forest = causality.build_forest(traced["web"][0].log)
    stacks = causality.latency_stacks(forest)
    html_path = artifact_path(args.out_dir, "causality_flame.html")
    causality.write_flame_html(html_path, stacks,
                               title="latency flame: causality smoke "
                                     "web run", unit="µs")
    print(f"  artifact -> {html_path}")
    collapsed_path = artifact_path(args.out_dir, "causality_flame.txt")
    causality.write_collapsed(collapsed_path, stacks)
    print(f"  artifact -> {collapsed_path}")
    check(os.path.getsize(html_path) > 0
          and os.path.getsize(collapsed_path) > 0 and bool(stacks),
          f"flame outputs are non-empty ({len(stacks)} stacks)")


# -- the table -------------------------------------------------------------


@dataclass(frozen=True)
class Plane:
    """One plane's smoke: its off variants, digests and acceptance."""

    #: What the off-path step proves, for its heading.
    invisible: str
    #: ``variant -> digests``, float-for-float comparable.
    digests: Callable[[object], Dict]
    #: ``(args, first variant's digests)``: the acceptance checks.
    accept: Callable[[argparse.Namespace, Dict], None]
    #: Text of the check against the committed baseline.
    baseline: str = "off-path digests match the committed baseline"
    #: The "off" variants; the first one's digests are the baseline's.
    #: ``None`` for a plane a config arms, ``False`` for one a bool arms.
    variants: Tuple = (None,)
    #: Digest key (``None``: all of them) -> text of the check that
    #: every variant agrees on it.
    same: Dict[Optional[str], str] = field(default_factory=dict)


def planes() -> Dict[str, Plane]:
    """Every plane's smoke, built afresh for one run."""
    traced = {}
    return {
        "resilience": Plane("resilience package must be invisible",
                            resilience_digests, accept_resilience,
                            variants=(False,)),
        "autoscale": Plane("autoscale package must be invisible",
                           autoscale_digests, accept_autoscale,
                           variants=(False,)),
        "carbon": Plane(
            "carbon plane must be invisible", carbon_digests, accept_carbon,
            "plain-run digests match the committed baseline",
            (False, True),
            {None: "an idle empty-plan FaultInjector moves no float"}),
        "dvfs": Plane("P-state tables must be invisible", dvfs_digests,
                      accept_dvfs),
        "durability": Plane("no detector/monitor/ledger until armed",
                            durability_digests, accept_durability),
        "causality": Plane(
            "tracing must be invisible", causality_digests,
            lambda args, plain: accept_causality(args, traced),
            "untraced digests match the committed baseline",
            (None, traced),
            {"web": "traced web level is bit-identical to the untraced run",
             "job": f"traced {CAUSALITY_JOB} job is bit-identical to the "
                    "untraced run"}),
    }


def off_path(name: str, plane: Plane, update: bool) -> Dict:
    """Run every off variant; check they agree and match the baseline."""
    print(f"off-path fidelity ({plane.invisible}):")
    first, *others = [plane.digests(variant) for variant in plane.variants]
    for key, what in plane.same.items():
        check(all((d if key is None else d[key])
                  == (first if key is None else first[key])
                  for d in others), what)
    path = os.path.join(EXPERIMENTS, f"{name}_baseline.json")
    if update:
        write_json(path, first)
        print(f"  baseline rewritten -> {path}")
    else:
        with open(path, encoding="utf-8") as handle:
            check(json.load(handle) == first, plane.baseline)
    return first


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    table = planes()
    parser.add_argument("plane", choices=sorted(table))
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed off-path baseline "
                             "instead of checking against it")
    parser.add_argument("--out-dir", default=REPO, metavar="DIR",
                        help="where the report artifacts go")
    args = parser.parse_args()
    plane = table[args.plane]
    plane.accept(args, off_path(args.plane, plane, args.update))
    if _failures:
        print(f"{len(_failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
