"""Command-line interface: run any of the paper's experiments directly.

Examples
--------
::

    python -m repro web --platform edison --concurrency 512
    python -m repro job wordcount --platform dell --slaves 2
    python -m repro claims T8 T10
    python -m repro microbench
    python -m repro histogram --platform dell

Each handler imports the simulation modules it runs, so building the
parser (``--help``, a usage error) loads none of them.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .core.report import format_table
from .mapreduce.jobs import JOB_NAMES


def _load_fault_plan(args):
    """The FaultPlan named by ``--fault-plan``, or None."""
    path = getattr(args, "fault_plan", None)
    if not path:
        return None
    from .faults import FaultPlan
    try:
        return FaultPlan.load(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro: error: --fault-plan: {exc}")


def _print_fault_report(injector) -> None:
    from .faults import AvailabilityReport
    for line in AvailabilityReport.from_injector(injector).lines():
        print(line)


def _check_parent_dir(flag: str, path: str) -> None:
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        # fail before the simulation runs, not after minutes of work
        raise SystemExit(f"repro: error: {flag} directory does not exist: "
                         f"{parent}")


def _make_tracer(args):
    """A Tracer when ``--trace``/``--metrics``/``--flame`` was given.

    ``--metrics`` rides the trace event stream (the tracer's registry
    aggregates every emission) and ``--flame`` needs the causal spans,
    so any of the three flags forces a tracer.
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    flame_path = getattr(args, "flame", None)
    if not trace_path and not metrics_path and not flame_path:
        return None
    if trace_path:
        _check_parent_dir("--trace", trace_path)
    if metrics_path:
        _check_parent_dir("--metrics", metrics_path)
    if flame_path:
        _check_parent_dir("--flame", flame_path)
    from .trace import Tracer
    return Tracer()


def _export_trace(tracer, args) -> None:
    if tracer is None:
        return
    path = getattr(args, "trace", None)
    if path:
        from .trace import write_chrome_trace, write_csv, write_jsonl
        # Extension picks the format: .jsonl/.csv round-trip through
        # ``repro causality``; anything else is a Chrome/Perfetto trace.
        if path.endswith(".jsonl"):
            write_jsonl(tracer.log, path)
            print(f"trace: {len(tracer.log)} events -> {path} "
                  f"(analyse with: python -m repro causality {path})")
        elif path.endswith(".csv"):
            write_csv(tracer.log, path)
            print(f"trace: {len(tracer.log)} events -> {path}")
        else:
            write_chrome_trace(tracer.log, path)
            print(f"trace: {len(tracer.log)} events -> {path} "
                  f"(open in https://ui.perfetto.dev)")
    _export_metrics(tracer, args)
    _export_flame(tracer, args)


def _write_flame(path: str, stacks, title: str, unit: str) -> None:
    from .causality import write_collapsed, write_flame_html
    if path.endswith((".html", ".htm")):
        write_flame_html(path, stacks, title=title, unit=unit)
    else:
        write_collapsed(path, stacks)


def _export_flame(tracer, args) -> None:
    """Render ``--flame`` from the run's causal trees (latency flame)."""
    path = getattr(args, "flame", None)
    if tracer is None or not path:
        return
    from .causality import build_forest, latency_stacks
    forest = build_forest(tracer.log)
    stacks = latency_stacks(forest)
    command = getattr(args, "command", None) or "run"
    _write_flame(path, stacks, title=f"latency flame: {command} run",
                 unit="µs")
    print(f"flame: {len(forest.roots)} causal trees, "
          f"{len(stacks)} stacks -> {path}")


def _export_metrics(tracer, args) -> None:
    import json
    path = getattr(args, "metrics", None)
    if tracer is None or not path:
        return
    snapshot = tracer.metrics.snapshot()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=1)
    print(f"metrics: {len(snapshot)} instruments -> {path}")


def _print_resilience(thing) -> None:
    """One activity line when a run's resilience ledger saw any action."""
    ledger = getattr(thing, "resilience_ledger", None)
    if ledger is None:
        return
    active = {k: v for k, v in sorted(ledger.counters.items()) if v}
    if active:
        print("resilience: " + ", ".join(f"{k}={v}"
                                         for k, v in active.items()))


def _make_telemetry(args):
    """A Telemetry (with the stock rules) when ``--telemetry`` was given."""
    path = getattr(args, "telemetry", None)
    if not path:
        return None
    _check_parent_dir("--telemetry", path)
    from .telemetry import Telemetry, default_rules
    return Telemetry(rules=default_rules())


def _export_telemetry(telemetry, args) -> None:
    if telemetry is None:
        return
    telemetry.save(args.telemetry)
    for line in telemetry.alert_lines():
        print(line)
    for line in telemetry.slo_report().lines():
        print(line)
    if telemetry.sim is not None and telemetry.sim.faults is not None:
        for line in telemetry.detection_report().lines():
            print(line)
    print(f"telemetry: {len(telemetry.db)} series -> {args.telemetry} "
          f"(render with: python -m repro report {args.telemetry} "
          f"--html dash.html)")


def _cmd_web(args) -> int:
    from .web import WebServiceDeployment, WebWorkload
    workload = WebWorkload(image_fraction=args.images,
                           cache_hit_ratio=args.hit_ratio)
    tracer = _make_tracer(args)
    telemetry = _make_telemetry(args)
    plan = _load_fault_plan(args)
    deployment = WebServiceDeployment(args.platform, args.scale, workload,
                                      seed=args.seed, trace=tracer,
                                      resilience=args.resilience)
    if telemetry is not None:
        telemetry.attach_web(deployment)
    injector = deployment.attach_faults(plan) if plan is not None else None
    level = deployment.run_level(args.concurrency, duration=args.duration,
                                 warmup=args.duration / 3)
    _export_trace(tracer, args)
    _export_telemetry(telemetry, args)
    if injector is not None:
        _print_fault_report(injector)
    _print_resilience(deployment)
    print(format_table(
        ("metric", "value"),
        [("requests/s", f"{level.requests_per_second:.0f}"),
         ("mean delay (ms)", f"{level.mean_delay_s * 1000:.1f}"),
         ("5xx errors", level.error_calls),
         ("client timeouts", level.timeout_calls),
         ("SYN retries", level.syn_retries),
         ("cluster power (W)", f"{level.mean_power_w:.1f}"),
         ("requests/joule", f"{level.requests_per_second / level.mean_power_w:.1f}")],
        title=f"{args.platform}/{args.scale} web tier at "
              f"{args.concurrency} conn/s"))
    return 0


def _cmd_job(args) -> int:
    from .core import paperdata as paper
    from .mapreduce import JOB_FACTORIES, JobRunner
    spec, config = JOB_FACTORIES[args.name](args.platform, args.slaves)
    tracer = _make_tracer(args)
    telemetry = _make_telemetry(args)
    plan = _load_fault_plan(args)
    runner = JobRunner(args.platform, args.slaves, config=config,
                       seed=args.seed, trace=tracer,
                       resilience=args.resilience)
    if telemetry is not None:
        telemetry.attach_job(runner)
    injector = None
    if plan is not None:
        from .faults import FaultInjector
        injector = FaultInjector(runner.cluster, plan)
    report = runner.run(spec)
    _export_trace(tracer, args)
    _export_telemetry(telemetry, args)
    if injector is not None:
        _print_fault_report(injector)
    _print_resilience(runner)
    print(format_table(
        ("metric", "value"),
        [("run time (s)", f"{report.seconds:.0f}"),
         ("energy (J)", f"{report.joules:.0f}"),
         ("mean power (W)", f"{report.mean_watts:.1f}"),
         ("data-local maps", f"{report.locality_fraction * 100:.0f}%")],
        title=f"{args.name} on {args.slaves} {args.platform} slaves"))
    published = paper.T8.get(args.name, {}).get(args.platform, {}) \
        .get(args.slaves)
    if published is not None:
        print(f"paper: {published.seconds:.0f}s / {published.joules:.0f}J")
    return 0


def _cmd_chaos_web(args) -> int:
    from .faults import web_kill_experiment
    plan = _load_fault_plan(args)
    tracer = _make_tracer(args)
    telemetry = _make_telemetry(args)
    result = web_kill_experiment(
        platform=args.platform, scale=args.scale, victim=args.victim,
        plan=plan, concurrency=args.concurrency, duration=args.duration,
        warmup=args.duration / 4, kill_at=args.kill_at,
        repair_s=args.repair_after, seed=args.seed, trace=tracer,
        telemetry=telemetry, resilience=args.resilience)
    _export_trace(tracer, args)
    _export_telemetry(telemetry, args)
    base, fault = result.baseline, result.faulted
    print(format_table(
        ("metric", "baseline", "faulted"),
        [("requests/s", f"{base.requests_per_second:.0f}",
          f"{fault.requests_per_second:.0f}"),
         ("mean delay (ms)", f"{base.mean_delay_s * 1000:.1f}",
          f"{fault.mean_delay_s * 1000:.1f}"),
         ("5xx errors", base.error_calls, fault.error_calls),
         ("failed connections", base.failed_connections,
          fault.failed_connections),
         ("cluster power (W)", f"{base.mean_power_w:.1f}",
          f"{fault.mean_power_w:.1f}")],
        title=f"chaos: {', '.join(result.victims)} down on "
              f"{args.platform}/{args.scale} "
              f"({result.web_servers} web servers)"))
    print(f"goodput loss: {result.goodput_loss_fraction * 100:.1f}% "
          f"(capacity-share prediction: "
          f"{result.expected_loss_fraction * 100:.1f}%)")
    print(f"energy per completed call: "
          f"{result.energy_per_call_overhead * 100:+.1f}%")
    for line in result.availability.lines():
        print(line)
    return 0


def _cmd_chaos_job(args) -> int:
    from .faults import job_kill_experiment
    plan = _load_fault_plan(args)
    tracer = _make_tracer(args)
    telemetry = _make_telemetry(args)
    result = job_kill_experiment(
        job=args.name, platform=args.platform, slaves=args.slaves,
        victim=args.victim, plan=plan, kill_at=args.kill_at,
        repair_s=args.repair_after, seed=args.seed, trace=tracer,
        telemetry=telemetry, resilience=args.resilience)
    _export_trace(tracer, args)
    _export_telemetry(telemetry, args)
    rows = [("baseline", f"{result.baseline.seconds:.0f}s / "
                         f"{result.baseline.joules:.0f}J")]
    if result.completed:
        rows.append(("faulted", f"{result.faulted.seconds:.0f}s / "
                                f"{result.faulted.joules:.0f}J"))
        rows.append(("overhead",
                     f"{result.time_overhead_fraction * 100:+.1f}% time, "
                     f"{result.energy_overhead_fraction * 100:+.1f}% energy"))
    else:
        rows.append(("faulted", "JOB FAILED (all replicas lost)"))
    rows.append(("maps re-executed", result.recovered_maps))
    print(format_table(
        ("run", "result"), rows,
        title=f"chaos: {args.name}, {', '.join(result.victims)} down on "
              f"{args.slaves} {args.platform} slaves"))
    for line in result.availability.lines():
        print(line)
    return 0 if result.completed else 1


def _run_resilience(plane, args, plan, trace):
    # Always the committed gray seed: the report's numbers are the
    # repo's pinned acceptance story, not a sampling experiment.
    if args.kind == "web":
        return plane.web_resilience_experiment(platform=args.platform)
    return plane.job_resilience_experiment(platform=args.platform)


def _run_durability(plane, args, plan, trace):
    kwargs = {"platforms": tuple(args.platforms)} if args.platforms else {}
    return plane.durability_experiment(plan, controls=not args.no_controls,
                                       **kwargs)


@dataclass(frozen=True)
class _Sweep:
    """One plane's sweep subcommand; its name is the plane's package."""

    help: str
    #: ``(plane, args, plan, tracer) -> report`` with lines()/to_dict().
    run: Callable
    #: ``(class name, committed file)`` of the ``--plan``; None: no plan.
    plan: Optional[Tuple[str, str]] = None
    #: Extra ``(flags, add_argument kwargs)`` of this subcommand.
    flags: Tuple[Tuple[Tuple[str, ...], Dict], ...] = ()


_SWEEPS = {
    "resilience": _Sweep(
        help="gray-failure tax report: the same seeded fault plan run "
             "with and without mitigation, and the joule price of the "
             "difference",
        run=_run_resilience,
        flags=((("kind",), {"choices": ("web", "job")}),
               (("--platform",), {"choices": ("edison", "dell"),
                                  "default": "edison"}))),
    "autoscale": _Sweep(
        help="three-arm provisioning day: static-Edison and static-Dell "
             "fleets vs the autoscaled hybrid, with joules, SLOs and "
             "dollars per arm",
        run=lambda plane, args, plan, trace:
            plane.autoscale_experiment(plan, trace=trace),
        plan=("DayPlan", "autoscale_day.json"),
        flags=((("--trace",), {"metavar": "PATH",
                               "help": "write a Chrome/Perfetto trace of "
                                       "all three arms to PATH"}),)),
    "carbon": _Sweep(
        help="carbon day: four deferral policies (no-wait, EDD, "
             "threshold-waiting, suspend-resume) x both platforms, "
             "with grams CO2, dollars, wait and deadline misses per arm",
        run=lambda plane, args, plan, trace: plane.carbon_experiment(plan),
        plan=("CarbonDayPlan", "carbon_day.json")),
    "dvfs": _Sweep(
        help="governor sweep: performance, powersave and ondemand x "
             "both platforms x three day shapes, with joules, p95, "
             "P-state switches and energy-proportionality scorecards",
        run=lambda plane, args, plan, trace: plane.dvfs_experiment(
            plan, scorecards=not args.no_scorecards),
        plan=("DvfsPlan", "dvfs_day.json"),
        flags=((("--no-scorecards",), {
            "action": "store_true",
            "help": "skip the 10..100%% load ladders (faster)"}),)),
    "durability": _Sweep(
        help="durability day: rack-aware vs oblivious placement x "
             "replication 1..3 x both platforms under a committed "
             "partition/disk-failure timeline, with blocks lost, "
             "block-seconds at risk, repair joules and the split-brain "
             "reconciliation bill",
        run=_run_durability,
        plan=("DurabilityPlan", "durability_day.json"),
        flags=((("--platforms",), {
                    "nargs": "*", "choices": ("edison", "dell"),
                    "metavar": "PLATFORM",
                    "help": "restrict the day to these platforms "
                            "(default: both)"}),
               (("--no-controls",), {
                    "action": "store_true",
                    "help": "skip the no-partition control arms (faster, "
                            "but no downtime cross-check)"}))),
}


def _cmd_sweep(args) -> int:
    """Run one plane's sweep, print its table, optionally save JSON."""
    import importlib
    import json
    sweep = _SWEEPS[args.command]
    plane = importlib.import_module(f".{args.command}", __package__)
    if args.json:
        _check_parent_dir("--json", args.json)
    plan = None
    if sweep.plan is not None:
        try:
            plan = getattr(plane, sweep.plan[0]).load(args.plan)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro: error: --plan: {exc}")
    tracer = None
    if getattr(args, "trace", None):
        _check_parent_dir("--trace", args.trace)
        from .trace import Tracer, write_chrome_trace
        tracer = Tracer()
    report = sweep.run(plane, args, plan, tracer)
    for line in report.lines():
        print(line)
    if tracer is not None:
        write_chrome_trace(tracer.log, args.trace)
        print(f"trace: {len(tracer.log)} events -> {args.trace}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=1)
        print(f"report -> {args.json}")
    return 0


def _cmd_causality(args) -> int:
    """Post-mortem a saved span trace: trees, critical paths, energy."""
    from . import causality
    from .trace import read_csv, read_jsonl
    try:
        if args.tracefile.endswith(".csv"):
            log = read_csv(args.tracefile)
        else:
            log = read_jsonl(args.tracefile)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"repro: error: {args.tracefile}: {exc}")
    forest = causality.build_forest(log)
    if not forest.roots:
        raise SystemExit("repro: error: no identified spans in "
                         f"{args.tracefile} (record it with --trace "
                         "out.jsonl on a web/job run)")
    print(f"{len(log)} events, {len(forest.by_id)} spans, "
          f"{len(forest.trees())} causal trees "
          f"({len(forest.orphans)} orphaned subtrees)")
    aborted = [n for n in forest.walk() if n.aborted is not None]
    if aborted:
        kinds = {}
        for n in aborted:
            kinds[n.aborted] = kinds.get(n.aborted, 0) + 1
        print("aborted spans: " + ", ".join(
            f"{k}={v}" for k, v in sorted(kinds.items())))
    roots = [r for r in forest.roots if r.parent_id == 0]
    if roots:
        slowest = max(roots, key=lambda r: r.dur)
        path = causality.critical_path(slowest)
        waits = path.by_kind()
        print(f"slowest tree: {slowest.name} trace={slowest.trace_id} "
              f"({slowest.dur * 1000:.2f} ms; "
              f"self {waits.get('self', 0.0) * 1000:.2f} ms, "
              f"blocked {waits.get('blocked', 0.0) * 1000:.2f} ms)")
        for seg in path.longest(args.top):
            print(f"  {seg.duration * 1000:8.3f} ms  {seg.kind:7s} "
                  f"{seg.name}" + (f" @ {seg.node}" if seg.node else ""))
    try:
        decomposition = causality.decomposition_from_critical_paths(
            log, after=args.after, forest=None)
    except ValueError:
        decomposition = None
    if decomposition is not None:
        print(f"decomposition ({decomposition.requests} requests): "
              f"db {decomposition.db_delay_s * 1000:.2f} ms, "
              f"cache {decomposition.cache_delay_s * 1000:.2f} ms, "
              f"total {decomposition.total_delay_s * 1000:.2f} ms, "
              f"connect {decomposition.connect_delay_s * 1000:.2f} ms")
    attribution = causality.attribute_energy(log, forest=forest)
    by_span = {}
    for name, acct in sorted(attribution.nodes.items()):
        print(f"energy {name}: {acct.metered_j:.1f} J metered = "
              f"{acct.baseline_j:.1f} idle + {acct.attributed_j:.1f} "
              f"attributed ({len(acct.by_span)} spans) + "
              f"{acct.unattributed_j:.1f} unattributed")
        for sid, joules in acct.by_span.items():
            by_span[sid] = by_span.get(sid, 0.0) + joules
    if args.flame:
        _check_parent_dir("--flame", args.flame)
        stacks = causality.latency_stacks(forest)
        _write_flame(args.flame, stacks,
                     title=f"latency flame: {args.tracefile}", unit="µs")
        print(f"latency flame -> {args.flame}")
    if args.energy_flame:
        _check_parent_dir("--energy-flame", args.energy_flame)
        if not by_span:
            raise SystemExit("repro: error: --energy-flame needs a trace "
                             "with power counters (run with a metered "
                             "cluster)")
        stacks = causality.energy_stacks(forest, by_span)
        _write_flame(args.energy_flame, stacks,
                     title=f"energy flame: {args.tracefile}", unit="µJ")
        print(f"energy flame -> {args.energy_flame}")
    return 0


def _cmd_report(args) -> int:
    from .telemetry import (load_bundle, summary_lines, write_dashboard,
                            write_prometheus)
    try:
        bundle = load_bundle(args.bundle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro: error: {exc}")
    for line in summary_lines(bundle):
        print(line)
    if args.html:
        _check_parent_dir("--html", args.html)
        write_dashboard(bundle, args.html)
        print(f"dashboard -> {args.html}")
    if args.prom:
        _check_parent_dir("--prom", args.prom)
        write_prometheus(bundle, args.prom)
        print(f"prometheus exposition -> {args.prom}")
    return 0


def _cmd_claims(args) -> int:
    from .core import claims
    try:
        selected = claims.select(args.ids)
    except ValueError as exc:
        raise SystemExit(f"repro: error: {exc}")
    results = claims.check(selected)
    print(claims.render(results))
    return 0 if all(r.ok for r in results) else 1


def _cmd_histogram(args) -> int:
    from .web import delay_distribution
    log = delay_distribution(args.platform, total_rate_rps=args.rate,
                             duration=args.duration,
                             warmup=args.duration / 3)
    rows = [(f"{start:.1f}-{start + 0.5:.1f}", count, "#" * min(60, count))
            for start, count in log.histogram(0.5, 8.0) if count]
    print(format_table(("delay (s)", "samples", ""), rows,
                       title=f"{args.platform} response-delay distribution "
                             f"at {args.rate:.0f} req/s (Figures 10/11)"))
    return 0


def _cmd_microbench(args) -> int:
    from .cluster import Cluster
    from .hardware import DELL_R620, EDISON, make_server
    from .microbench import (run_dd, run_dhrystone, run_ioping, run_iperf,
                             run_ping, run_sysbench_cpu, run_sysbench_memory)
    from .sim import Simulation
    rows = []
    for label, spec in (("edison", EDISON), ("dell", DELL_R620)):
        sim = Simulation()
        server = make_server(sim, spec, "s0")
        rows.append((f"{label} Dhrystone (DMIPS)",
                     f"{run_dhrystone(sim, server).dmips:.1f}"))
        sim = Simulation()
        server = make_server(sim, spec, "s0")
        rows.append((f"{label} sysbench 1-thread (s)",
                     f"{run_sysbench_cpu(sim, server, 1).total_time_s:.0f}"))
        sim = Simulation()
        server = make_server(sim, spec, "s0")
        rows.append((f"{label} mem BW (GB/s)",
                     f"{run_sysbench_memory(sim, server, 1 << 20, 16).rate_bps / 1e9:.2f}"))
        sim = Simulation()
        server = make_server(sim, spec, "s0")
        rows.append((f"{label} dd write (MB/s)",
                     f"{run_dd(sim, server, 'write', 50e6).rate_bps / 1e6:.1f}"))
        sim = Simulation()
        server = make_server(sim, spec, "s0")
        rows.append((f"{label} ioping read (ms)",
                     f"{run_ioping(sim, server, 'read').mean_latency_s * 1e3:.2f}"))
    sim = Simulation()
    cluster = Cluster(sim)
    cluster.add(EDISON, "a")
    cluster.add(EDISON, "b")
    rows.append(("edison-edison iperf TCP (Mb/s)",
                 f"{run_iperf(sim, cluster.topology, 'a', 'b', 100e6).goodput_bps / 1e6:.1f}"))
    sim = Simulation()
    cluster = Cluster(sim)
    cluster.add(EDISON, "a")
    cluster.add(EDISON, "b")
    rows.append(("edison-edison ping (ms)",
                 f"{run_ping(sim, cluster.topology, 'a', 'b').rtt_s * 1e3:.2f}"))
    print(format_table(("benchmark", "result"), rows,
                       title="Section 4 micro-benchmarks"))
    return 0


def _add_observability_flags(parser) -> None:
    """``--telemetry`` and ``--metrics``, shared by the run subcommands."""
    parser.add_argument("--telemetry", metavar="PATH",
                        help="attach monitoring scrapers + the stock alert "
                             "rules; write the telemetry bundle (JSON) to "
                             "PATH after the run")
    parser.add_argument("--metrics", metavar="PATH",
                        help="write the run's aggregated metrics "
                             "(counters/gauges/histograms) to PATH as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the VLDB'16 Edison micro-server study "
                    "in simulation.")
    parser.add_argument("--seed", type=int, default=20160901,
                        help="root RNG seed (default: %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    web = sub.add_parser("web", help="run one web-serving level")
    web.add_argument("--platform", choices=("edison", "dell"),
                     default="edison")
    web.add_argument("--scale", default="full",
                     choices=("full", "1/2", "1/4", "1/8"))
    web.add_argument("--concurrency", type=int, default=512)
    web.add_argument("--duration", type=float, default=3.0)
    web.add_argument("--images", type=float, default=0.0,
                     help="image-query fraction (0-1)")
    web.add_argument("--hit-ratio", type=float, default=0.93)
    web.add_argument("--trace", metavar="PATH",
                     help="write a trace of the run to PATH (.jsonl/.csv "
                          "round-trip through 'repro causality'; any "
                          "other extension is Chrome/Perfetto JSON)")
    web.add_argument("--flame", metavar="PATH",
                     help="write a latency flame graph of the run's "
                          "causal trees (.html for the self-contained "
                          "SVG page, anything else for collapsed stacks)")
    web.add_argument("--resilience", action="store_true",
                     help="enable the web-tier mitigations (circuit "
                          "breakers, retries, hedging, load shedding) "
                          "with their stock configuration")
    web.add_argument("--fault-plan", metavar="FILE",
                     help="inject the faults in this JSON plan "
                          "(see repro.faults.FaultPlan)")
    _add_observability_flags(web)
    web.set_defaults(func=_cmd_web)

    job = sub.add_parser("job", help="run one MapReduce job")
    job.add_argument("name", choices=sorted(JOB_NAMES))
    job.add_argument("--platform", choices=("edison", "dell"),
                     default="edison")
    job.add_argument("--slaves", type=int, default=35)
    job.add_argument("--trace", metavar="PATH",
                     help="write a trace of the run to PATH (.jsonl/.csv "
                          "round-trip through 'repro causality'; any "
                          "other extension is Chrome/Perfetto JSON)")
    job.add_argument("--flame", metavar="PATH",
                     help="write a latency flame graph of the job's "
                          "causal trees (.html for the self-contained "
                          "SVG page, anything else for collapsed stacks)")
    job.add_argument("--resilience", action="store_true",
                     help="enable LATE speculative execution and retry "
                          "backoff with their stock configuration")
    job.add_argument("--fault-plan", metavar="FILE",
                     help="inject the faults in this JSON plan "
                          "(see repro.faults.FaultPlan)")
    _add_observability_flags(job)
    job.set_defaults(func=_cmd_job)

    chaos = sub.add_parser(
        "chaos", help="fault-injection experiments (kill nodes mid-run)")
    chaos_sub = chaos.add_subparsers(dest="mode", required=True)
    cweb = chaos_sub.add_parser(
        "web", help="kill a web server mid-measurement vs a clean run")
    cweb.add_argument("--platform", choices=("edison", "dell"),
                      default="edison")
    cweb.add_argument("--scale", default="full",
                      choices=("full", "1/2", "1/4", "1/8"))
    cweb.add_argument("--concurrency", type=int, default=512)
    cweb.add_argument("--duration", type=float, default=6.0)
    cweb.add_argument("--victim", metavar="NODE",
                      help="server to kill (default: web-0)")
    cweb.add_argument("--kill-at", type=float, default=1.5,
                      help="crash onset time in seconds "
                           "(default: %(default)s)")
    cweb.add_argument("--repair-after", type=float, default=None,
                      help="repair delay in seconds (default: never)")
    cweb.add_argument("--resilience", action="store_true",
                      help="arm the faulted run with the stock web-tier "
                           "mitigations (the baseline stays clean)")
    cweb.add_argument("--fault-plan", metavar="FILE",
                      help="run this JSON plan instead of a single kill")
    cweb.add_argument("--trace", metavar="PATH",
                      help="write a Chrome/Perfetto trace of the faulted "
                           "run to PATH")
    _add_observability_flags(cweb)
    cweb.set_defaults(func=_cmd_chaos_web)
    cjob = chaos_sub.add_parser(
        "job", help="kill a Hadoop slave mid-job vs a clean run")
    cjob.add_argument("name", choices=sorted(JOB_NAMES))
    cjob.add_argument("--platform", choices=("edison", "dell"),
                      default="edison")
    cjob.add_argument("--slaves", type=int, default=35)
    cjob.add_argument("--victim", metavar="NODE",
                      help="slave to kill (default: the first slave)")
    cjob.add_argument("--kill-at", type=float, default=30.0,
                      help="crash onset time in seconds "
                           "(default: %(default)s)")
    cjob.add_argument("--repair-after", type=float, default=None,
                      help="repair delay in seconds (default: never)")
    cjob.add_argument("--resilience", action="store_true",
                      help="arm the faulted run with LATE speculation "
                           "(the baseline stays clean)")
    cjob.add_argument("--fault-plan", metavar="FILE",
                      help="run this JSON plan instead of a single kill")
    cjob.add_argument("--trace", metavar="PATH",
                      help="write a Chrome/Perfetto trace of the faulted "
                           "run to PATH")
    _add_observability_flags(cjob)
    cjob.set_defaults(func=_cmd_chaos_job)

    experiments = os.path.join(os.path.dirname(__file__), "..", "..",
                               "experiments")
    for name, sweep in _SWEEPS.items():
        cmd = sub.add_parser(name, help=sweep.help)
        if sweep.plan is not None:
            kind, committed = sweep.plan
            cmd.add_argument(
                "--plan", default=os.path.join(experiments, committed),
                metavar="FILE",
                help=f"{kind} JSON (default: the committed "
                     f"experiments/{committed})")
        for flags, kwargs in sweep.flags:
            cmd.add_argument(*flags, **kwargs)
        cmd.add_argument("--json", metavar="PATH",
                         help="also write the report as JSON to PATH")
        cmd.set_defaults(func=_cmd_sweep)

    claims = sub.add_parser(
        "claims", help="check the paper's claims against their bounds "
                       "(exit 1 if any row is out of bounds)")
    claims.add_argument("ids", nargs="*", metavar="ID-PREFIX",
                        help="only ids starting with these dot-separated "
                             "parts, e.g. T3 S4.2 T8.pi (default: all)")
    claims.set_defaults(func=_cmd_claims)

    hist = sub.add_parser("histogram", help="Figure 10/11 delay histogram")
    hist.add_argument("--platform", choices=("edison", "dell"),
                      default="dell")
    hist.add_argument("--rate", type=float, default=6000.0)
    hist.add_argument("--duration", type=float, default=6.0)
    hist.set_defaults(func=_cmd_histogram)

    causality = sub.add_parser(
        "causality",
        help="post-mortem a saved span trace: causal trees, critical "
             "paths, per-span energy attribution and flame graphs")
    causality.add_argument("tracefile", metavar="TRACE",
                           help="span trace written by --trace out.jsonl "
                                "(or .csv) on a web/job run")
    causality.add_argument("--after", type=float, default=0.0,
                           help="ignore requests starting before this "
                                "time (warmup cut, default: %(default)s)")
    causality.add_argument("--top", type=int, default=5,
                           help="critical-path segments to print "
                                "(default: %(default)s)")
    causality.add_argument("--flame", metavar="PATH",
                           help="write the latency flame graph to PATH "
                                "(.html or collapsed stacks)")
    causality.add_argument("--energy-flame", metavar="PATH",
                           help="write the attributed-energy flame graph "
                                "to PATH (needs power counters in the "
                                "trace)")
    causality.set_defaults(func=_cmd_causality)

    report = sub.add_parser(
        "report", help="summarise a saved telemetry bundle")
    report.add_argument("bundle", metavar="BUNDLE",
                        help="telemetry JSON written by --telemetry")
    report.add_argument("--html", metavar="PATH",
                        help="render a self-contained HTML dashboard")
    report.add_argument("--prom", metavar="PATH",
                        help="write Prometheus text exposition")
    report.set_defaults(func=_cmd_report)

    sub.add_parser("microbench", help="Section 4 single-server tests") \
        .set_defaults(func=_cmd_microbench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
