"""The four benchmark workloads, built only from repro's public entry points.

Each workload is a ``build(root, seed)`` function.  Building is the
timed *setup*: it imports the simulator, loads any committed plan JSON,
builds the cluster, deployment or runners and arms the planes.  It
returns a :class:`Prepared` whose ``run()`` is the timed *simulation*
and returns the result digest, and whose ``counts()`` reads the exact
model counts from the public state the run left behind.

``src/repro`` is treated as a black box: nothing here edits it or reaches
into a private helper; the two experiment arms are rebuilt from the same
public pieces the repo's own sweeps use.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import Callable, Dict, List, Optional

#: The canonical seed of each workload (the one the repo's own records
#: use); every other seed in the committed digest pool is benchmark-local.
CANONICAL_SEED = {
    "web-closed": 20160901,
    "terasort": 20160901,
    "web-day-observed": 41,
    "job-day-faulted": 20260809,
}

#: Edison 48x22 cell (70 nodes) at the parameters of BENCH_kernel_scale.json.
WEB_SCALE, WEB_CONCURRENCY, WEB_DURATION_S, WEB_WARMUP_S = "48x22", 192, 2.0, 0.5
TERASORT_SLAVES = 4


class Prepared:
    """A built workload: ``run()`` once, then read ``counts()``."""

    def __init__(self, run: Callable[[], object],
                 counts: Callable[[], Dict[str, float]]):
        self.run = run
        self.counts = counts


# -- counting helpers ----------------------------------------------------------


#: The exact model counts every workload reports, with their units.
COUNT_UNITS = {
    "kernel.events": "count", "kernel.heap_peak": "count",
    "kernel.dropped": "count",
    "net.nic_bytes": "B", "hardware.cpu_busy_vcore_s": "s",
    "hardware.disk_bytes": "B",
    "web.ok_calls": "count", "web.failed_calls": "count",
    "web.connections": "count",
    "mapreduce.local_map_ratio": "ratio",
    "mapreduce.cross_rack_read_bytes": "B",
    "energy.meter_samples": "count", "trace.events": "count",
    "telemetry.series": "count", "dvfs.evals": "count",
    "dvfs.transitions": "count", "faults.records": "count",
    "durability.repairs": "count", "durability.repair_bytes": "B",
    "durability.duplicate_kills": "count",
}


def _zero_counts() -> Dict[str, float]:
    return dict.fromkeys(COUNT_UNITS, 0)


def _add_sim(counts: Dict, sim, cluster, meter) -> None:
    """Kernel, hardware, net and meter counts of one simulation."""
    stats = sim.calendar_stats()
    counts["kernel.events"] += stats["processed"]
    counts["kernel.dropped"] += stats["dropped"]
    counts["kernel.heap_peak"] = max(counts["kernel.heap_peak"],
                                     stats["heap_peak"])
    for server in cluster:
        counts["net.nic_bytes"] += (server.nic.bytes_sent
                                    + server.nic.bytes_received)
        counts["hardware.cpu_busy_vcore_s"] += server.cpu.busy_vcore_seconds()
        counts["hardware.disk_bytes"] += (server.storage.bytes_read
                                          + server.storage.bytes_written)
    counts["energy.meter_samples"] += len(meter.series)


def _add_level(counts: Dict, level) -> None:
    counts["web.ok_calls"] += level.ok_calls
    counts["web.failed_calls"] += (level.error_calls + level.timeout_calls
                                   + level.failed_connections)
    counts["web.connections"] += level.connections


def _add_runners(counts: Dict, runs) -> None:
    """MapReduce counts of ``(runner, JobReport or None if it failed)`` pairs.

    ``mapreduce.local_map_ratio`` is the mean data-local map fraction of
    the finished jobs.  (YARN's own grant counters only count requests
    naming a preferred node, which the runtime never makes, so they read
    0 and are not used.)
    """
    localities = [report.locality_fraction for _, report in runs
                  if report is not None]
    counts["mapreduce.local_map_ratio"] = (sum(localities) / len(localities)
                                           if localities else 0.0)
    for runner, _ in runs:
        counts["mapreduce.cross_rack_read_bytes"] += \
            runner.hdfs.cross_rack_read_bytes


def _p95(delays: List[float]) -> Optional[float]:
    """Nearest-rank 95th percentile, as the DVFS sweep reports it."""
    if not delays:
        return None
    ordered = sorted(delays)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


# -- the workloads -------------------------------------------------------------


def build_web_closed(root: str, seed: int) -> Prepared:
    """Closed-loop httperf, 192 connections, on the Edison 70-node cell."""
    from repro.web import WebServiceDeployment

    deployment = WebServiceDeployment("edison", WEB_SCALE, seed=seed)
    for node in deployment.web_nodes:
        node.record_log_enabled = False
    out = {}

    def run():
        out["level"] = deployment.run_level(
            WEB_CONCURRENCY, duration=WEB_DURATION_S, warmup=WEB_WARMUP_S)
        return dataclasses.asdict(out["level"])

    def counts():
        c = _zero_counts()
        _add_sim(c, deployment.sim, deployment.cluster, deployment.meter)
        _add_level(c, out["level"])
        return c

    return Prepared(run, counts)


def build_terasort(root: str, seed: int) -> Prepared:
    """Edison Terasort on 4 slaves (168 maps, 70 reduces)."""
    from repro.mapreduce import JOB_FACTORIES, JobRunner

    spec, config = JOB_FACTORIES["terasort"]("edison", TERASORT_SLAVES)
    runner = JobRunner("edison", TERASORT_SLAVES, config=config, seed=seed)
    out = {}

    def run():
        report = out["report"] = runner.run(spec)
        return {"seconds": report.seconds, "joules": report.joules,
                "locality_fraction": report.locality_fraction}

    def counts():
        c = _zero_counts()
        _add_sim(c, runner.sim, runner.cluster, runner.meter)
        _add_runners(c, [(runner, out["report"])])
        return c

    return Prepared(run, counts)


def build_web_day_observed(root: str, seed: int,
                           traced: bool = True) -> Prepared:
    """The ``flash`` DVFS day on Edison 1/8: open loop, ondemand governor,
    exemplar telemetry and (unless ``traced`` is False) a Tracer."""
    from repro.dvfs import DvfsArm, DvfsPlan, attach_web
    from repro.telemetry import Telemetry
    from repro.trace import Tracer
    from repro.web import WebServiceDeployment

    plan = DvfsPlan.load(os.path.join(root, "experiments", "dvfs_day.json"))
    shape = plan.shapes["flash"]
    tracer = Tracer() if traced else None
    deployment = WebServiceDeployment("edison", plan.scale("edison"),
                                      seed=seed, trace=tracer)
    telemetry = Telemetry(exemplars=True)
    telemetry.attach_web(deployment, until=plan.duration_s)
    plane = attach_web(deployment, plan.config("ondemand"),
                       until=plan.duration_s, telemetry=telemetry)
    out = {}

    def run():
        level = deployment.run_shaped(shape, plan.duration_s,
                                      calls=plan.calls, collect_delays=True)
        out["level"] = level
        slo = telemetry.slo_report()
        arm = DvfsArm(
            governor="ondemand", platform="edison", shape_name="flash",
            seconds=plan.duration_s,
            joules=deployment.meter.energy_joules(),
            ok_calls=level.ok_calls,
            errors=level.error_calls + level.timeout_calls
            + level.failed_connections,
            client_failures=slo.client_failures,
            availability=slo.availability,
            availability_met=slo.availability_met,
            latency_met=slo.latency_met,
            p95_s=_p95(deployment.last_driver.delays),
            mean_power_w=level.mean_power_w,
            transitions=plane.counters["transitions"],
            residency_s={k: round(v, 6) for k, v in sorted(
                plane.residency_s(plan.duration_s).items())})
        return arm.to_dict()

    def counts():
        c = _zero_counts()
        _add_sim(c, deployment.sim, deployment.cluster, deployment.meter)
        _add_level(c, out["level"])
        c["trace.events"] = tracer.log.accepted if tracer is not None else 0
        c["telemetry.series"] = len(telemetry.db)
        c["dvfs.evals"] = plane.counters["evals"]
        c["dvfs.transitions"] = plane.counters["transitions"]
        return c

    return Prepared(run, counts)


def build_job_day_faulted(root: str, seed: int) -> Prepared:
    """All 12 arms of the committed durability day, built up front and
    then run one after another."""
    from repro.durability import DurabilityArm, DurabilityPlan, attach_job
    from repro.faults import FaultInjector
    from repro.mapreduce import JOB_FACTORIES, JobRunner
    from repro.mapreduce.runtime import JobFailed

    plan = DurabilityPlan.load(
        os.path.join(root, "experiments", "durability_day.json"))
    arms = []
    for platform in ("edison", "dell"):
        faults = plan.faults_for(platform)
        for rack_aware in (False, True):
            for replication in plan.replications:
                spec, config = JOB_FACTORIES[plan.job](platform, plan.slaves)
                config = dataclasses.replace(config, replication=replication)
                runner = JobRunner(platform, plan.slaves, config=config,
                                   seed=seed, racks=plan.racks)
                injector = FaultInjector(runner.cluster, faults,
                                         detection_s=plan.detection_s)
                ledger = attach_job(runner, plan.config(rack_aware))
                arms.append((platform, rack_aware, replication, spec,
                             runner, injector, ledger))
    reports = {}

    def run_arm(platform, rack_aware, replication, spec, runner, injector,
                ledger):
        job_failed, job_seconds = False, 0.0
        try:
            reports[runner] = runner.run(spec)
            job_seconds = reports[runner].seconds
            runner.sim.run(until=runner.sim.now + plan.settle_s)
            runner.meter.sample()
        except JobFailed:
            job_failed = True       # r=1 and a dead disk: the day's outcome
            ledger.sample()
        day_seconds = runner.sim.now
        monitor = runner.hdfs.monitor
        counters = runner.partition_counters
        slaves = [s.name for s in runner.slave_servers]
        return DurabilityArm(
            platform=platform, rack_aware=rack_aware,
            replication=replication, job_failed=job_failed,
            job_seconds=job_seconds, day_seconds=day_seconds,
            joules=runner.meter.energy_joules(),
            blocks_created=runner.hdfs.health_summary()["blocks_created"],
            blocks_lost=ledger.blocks_lost,
            loss_events=len(ledger.loss_events),
            under_replicated_block_s=ledger.under_replicated_block_s,
            unavailable_block_s=ledger.unavailable_block_s,
            max_under_replicated=ledger.max_under_replicated,
            conservation_violations=ledger.conservation_violations,
            repairs_completed=monitor.repairs_completed if monitor else 0,
            repairs_deferred=monitor.repairs_deferred if monitor else 0,
            repair_bytes=ledger.repair_bytes,
            re_replication_j=ledger.joules["re_replication"],
            split_brain_j=ledger.joules["split_brain"],
            zombies_started=counters["zombies_started"],
            duplicate_kills=counters["duplicate_kills"],
            reregistered=counters["reregistered"],
            downtime_s=sum(injector.downtime(n, until=day_seconds)
                           for n in slaves),
            unreachable_s=sum(injector.unreachable_time(n, until=day_seconds)
                              for n in slaves),
            same_rack_read_bytes=runner.hdfs.same_rack_read_bytes,
            cross_rack_read_bytes=runner.hdfs.cross_rack_read_bytes)

    def run():
        return [run_arm(*arm).to_dict() for arm in arms]

    def counts():
        c = _zero_counts()
        _add_runners(c, [(arm[4], reports.get(arm[4])) for arm in arms])
        for *_head, runner, injector, ledger in arms:
            _add_sim(c, runner.sim, runner.cluster, runner.meter)
            c["faults.records"] += len(injector.records)
            monitor = runner.hdfs.monitor
            c["durability.repairs"] += monitor.repairs_completed if monitor else 0
            c["durability.repair_bytes"] += ledger.repair_bytes
            c["durability.duplicate_kills"] += \
                runner.partition_counters["duplicate_kills"]
        return c

    return Prepared(run, counts)


WORKLOADS: Dict[str, Callable[[str, int], Prepared]] = {
    "web-closed": build_web_closed,
    "terasort": build_terasort,
    "web-day-observed": build_web_day_observed,
    "job-day-faulted": build_job_day_faulted,
}
