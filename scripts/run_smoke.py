#!/usr/bin/env python
"""Plane smoke: each opt-in plane's acceptance bar and its artifacts.

One runner for the six opt-in planes — resilience, autoscale, carbon,
dvfs, durability and causality.  Each plane's committed seeded
experiment must clear the bar its ``accept_*`` function states, and the
reports land in ``--out-dir`` as artifacts.  That a plane is invisible
until armed is pinned by the ``offpath.<plane>`` rows of
``experiments/pins.json``, which ``tests/test_pins.py`` checks.

Every check prints one ``ok``/``FAIL`` line; the exit code is non-zero
when any check failed.

Run:  PYTHONPATH=src python scripts/run_smoke.py dvfs
"""

import argparse
import json
import os
import sys

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
EXPERIMENTS = os.path.join(REPO, "experiments")
sys.path.insert(0, os.path.join(REPO, "src"))

_failures = []


def check(ok: bool, what: str) -> None:
    """Print one check line; remember failures for the exit code."""
    print(("  ok  " if ok else "  FAIL") + f"  {what}")
    if not ok:
        _failures.append(what)


def artifact_path(out_dir: str, name: str) -> str:
    """Resolve an artifact path, creating ``out_dir`` on first use."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def write_artifact(out_dir: str, name: str, payload) -> None:
    """Drop one report JSON into ``out_dir`` and announce it."""
    path = artifact_path(out_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    print(f"  artifact -> {path}")


# -- resilience ------------------------------------------------------------


def accept_resilience(args) -> None:
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


def accept_autoscale(args) -> None:
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


def accept_carbon(args) -> None:
    """The no-wait arm reproduces the plain runs exactly, and on the
    committed day a waiting or suspend-resume policy beats no-wait on
    grams CO2 at zero deadline misses on both platforms, with the
    suspend-resume arm actually suspending and the R620 day emitting
    more CO2 than the Edison day."""
    from repro.carbon import CarbonDayPlan, carbon_experiment

    with open(os.path.join(EXPERIMENTS, "pins.json"),
              encoding="utf-8") as handle:
        plain = json.load(handle)["offpath.carbon"]
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


def accept_dvfs(args) -> None:
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


def accept_durability(args) -> None:
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


def traced_cells():
    """One traced web level and one traced terasort-mini job: label ->
    ``(tracer, cluster)``."""
    from repro.carbon.jobspec import CARBON_JOB_KINDS
    from repro.mapreduce.runtime import JobRunner
    from repro.trace import Tracer
    from repro.web import WebServiceDeployment

    web_tracer, job_tracer = Tracer(), Tracer()
    deployment = WebServiceDeployment("edison", "1/4", seed=CAUSALITY_SEED,
                                      trace=web_tracer)
    deployment.run_level(24, duration=3.0, warmup=1.0)
    spec, config = CARBON_JOB_KINDS["terasort-mini"]("edison")
    runner = JobRunner("edison", 4, config=config, seed=CAUSALITY_SEED,
                       trace=job_tracer)
    runner.run(spec)
    return {"web": (web_tracer, deployment.cluster),
            "terasort-mini": (job_tracer, runner.cluster)}


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


def accept_causality(args) -> None:
    """On the traced runs ``baseline + attributed + unattributed`` equals
    each metered node's joules within 0.1 %, the Table 7 decomposition
    re-derived from causal tree structure agrees with the call-record
    measurement within 1 %, and the latency flame graph of the traced
    web run lands in ``--out-dir`` non-empty."""
    import repro.causality as causality
    from repro.trace import Tracer, delay_decomposition_from_trace
    from repro.web.deployment import measure_delay_decomposition

    traced = traced_cells()
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

ACCEPT = {"resilience": accept_resilience, "autoscale": accept_autoscale,
          "carbon": accept_carbon, "dvfs": accept_dvfs,
          "durability": accept_durability, "causality": accept_causality}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("plane", choices=sorted(ACCEPT))
    parser.add_argument("--out-dir", default=REPO, metavar="DIR",
                        help="where the report artifacts go")
    args = parser.parse_args()
    ACCEPT[args.plane](args)
    if _failures:
        print(f"{len(_failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
