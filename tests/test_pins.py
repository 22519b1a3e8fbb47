"""Exact pins of every run a change must leave alone, in one store.

``experiments/pins.json`` holds one fingerprint per pinned run, keyed by
row id:

* ``onpath.<name>`` — a small seeded cell on a driver path that a plane
  switches on.  Speculation, retries, crashes and partitions each steer
  a task attempt or an httperf connection through a different branch of
  its lifecycle.  The fingerprint holds report fields, ledger and
  partition counters, the kernel's processed-event count and a digest
  of the trace, all exact.
* ``offpath.<plane>`` — one opt-in plane's fidelity digests with the
  plane off (``None`` is off, or ``False`` for resilience and
  autoscale, which a bool arms).  A plane must be invisible until
  armed.

A twin is a second run of a row's cells that must reproduce the row
without storing a copy: carbon's plain jobs with an idle empty-plan
FaultInjector, and causality's cells traced.

A change that means to move a row re-records it, and only it:

    PYTHONPATH=src python -m tests.test_pins --record [PREFIX ...]

rewrites the rows whose id starts with a PREFIX (every row when none is
given) and prints each field that moved.
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import shutil
from collections import Counter

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.faults.models import (cpu_throttle, node_crash, packet_loss,
                                 rack_partition)
from repro.mapreduce import JOB_FACTORIES, JobRunner
from repro.mapreduce.runtime import JobFailed
from repro.trace import Tracer
from repro.web import WebServiceDeployment
from repro.web.params import WebWorkload
from repro.web.loadshape import DiurnalShape, FlashCrowd, ShapedLoad
from repro.web.rotation import WeightedRotation
from tests.test_mapreduce_jobs import small_spec

EXPERIMENTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "experiments")
STORE = os.path.join(EXPERIMENTS, "pins.json")


#: Trace categories whose per-name (and per-outcome) counts are pinned
#: in the clear; the digest covers every event.
_PINNED_CATEGORIES = ("task", "web", "yarn", "resilience", "fault")


def _trace_fingerprint(tracer):
    """Event count, per-name counts and a digest of every field."""
    digest = hashlib.sha256()
    for event in tracer.log:
        digest.update(repr((event.ts, event.dur, event.phase,
                            event.category, event.name, event.node,
                            json.dumps(event.attrs, sort_keys=True),
                            event.trace_id, event.span_id,
                            event.parent_id)).encode())
    spans = Counter(
        f"{event.name}:{event.attrs.get('ok', event.attrs.get('status'))}"
        f"{':killed' if event.attrs.get('killed') else ''}"
        for event in tracer.log if event.category in _PINNED_CATEGORIES)
    return {"events": len(tracer.log), "spans": dict(sorted(spans.items())),
            "sha256": digest.hexdigest()}


def _ledger(ledger):
    if ledger is None:
        return None
    return {"counters": dict(sorted(ledger.counters.items())),
            "waste_joules": dict(sorted(ledger.joules.items()))}


# -- MapReduce ----------------------------------------------------------------

def _job(spec, faults=(), resilience=False, traced=False, platform="edison",
         slaves=4, seed=5, racks=0, config=None):
    tracer = Tracer() if traced else None
    runner = JobRunner(platform, slaves, config=config, seed=seed,
                       trace=tracer, resilience=resilience, racks=racks)
    if faults:
        FaultInjector(runner.cluster, FaultPlan(faults=tuple(faults)))
    try:
        report = runner.run(spec)
        outcome = {"seconds": report.seconds, "joules": report.joules,
                   "locality": report.locality_fraction}
    except JobFailed as exc:
        outcome = {"failed": str(exc)}
    return {"outcome": outcome,
            "processed": runner.sim.calendar_stats()["processed"],
            "ledger": _ledger(runner.resilience_ledger),
            "partition": dict(runner.partition_counters),
            "trace": _trace_fingerprint(tracer) if traced else None}


def _straggler():
    return [cpu_throttle("edison-slave-0", at=10.0, duration=1e9,
                         factor=0.08)]


def job_plain():
    return _job(small_spec())


def job_traced():
    return _job(small_spec(), traced=True)


def job_speculation():
    return _job(small_spec(), faults=_straggler(),
                resilience=True, traced=True)


def job_crash():
    """A crash mid-map, then one that kills a running reduce."""
    return _job(small_spec(),
                faults=[node_crash("edison-slave-1", at=40.0, repair_s=30.0),
                        node_crash("edison-slave-2", at=135.0,
                                   repair_s=20.0)],
                traced=True)


def job_crash_speculation():
    return _job(small_spec(),
                faults=_straggler() + [node_crash("edison-slave-1", at=40.0,
                                                  repair_s=30.0)],
                resilience=True, traced=True)


def job_partition():
    spec, config = JOB_FACTORIES["wordcount2"]("dell", 8)
    config = dataclasses.replace(config, replication=2)
    return _job(spec, faults=[rack_partition("dell-rack-0", at=20.0,
                                             duration=6.0)],
                platform="dell", slaves=8, seed=20260809, racks=2,
                config=config, traced=True)


# -- web ------------------------------------------------------------------------

def _web(faults=(), resilience=False, traced=False, concurrency=24,
         duration=3.0, warmup=0.5, shaped=None, rotation=False,
         client_timeout_s=None):
    tracer = Tracer() if traced else None
    workload = None
    if client_timeout_s is not None:
        workload = WebWorkload(client_timeout_s=client_timeout_s)
    deployment = WebServiceDeployment("edison", "1/8", workload=workload,
                                      seed=7, resilience=resilience,
                                      trace=tracer)
    if faults:
        deployment.attach_faults(FaultPlan(faults=tuple(faults)))
    if shaped is None:
        level = deployment.run_level(concurrency, duration=duration,
                                     warmup=warmup, collect_delays=True)
    else:
        pool = None
        if rotation:
            pool = WeightedRotation(deployment.sim)
            for i, web in enumerate(deployment.web_nodes):
                pool.add(web, 1.0 + i % 2)
        level = deployment.run_shaped(shaped, duration=duration,
                                      warmup=warmup, rotation=pool,
                                      collect_delays=True)
    delays = deployment.last_driver.delays
    return {"level": dataclasses.asdict(level),
            "delays": [len(delays), sum(delays)],
            "processed": deployment.sim.calendar_stats()["processed"],
            "ledger": _ledger(deployment.resilience_ledger),
            "trace": _trace_fingerprint(tracer) if traced else None}


def _gray():
    """Loss, a deep throttle and a crash: hedges, sheds, retries and a
    breaker trip all engage on the three-server 1/8 tier."""
    return [packet_loss("web-0", at=0.5, duration=100.0, loss=0.3),
            cpu_throttle("web-1", at=0.5, duration=100.0, factor=0.02),
            node_crash("web-2", at=0.8, repair_s=1.0)]


def _blackout():
    """One crash, then every backend down at once for a moment."""
    return [node_crash("web-1", at=1.2, repair_s=1.0),
            node_crash("web-0", at=1.9, repair_s=0.6),
            node_crash("web-2", at=1.9, repair_s=0.6)]


def _day():
    return ShapedLoad(
        diurnal=DiurnalShape(base_rps=150.0, peak_rps=400.0, period_s=4.0),
        flashes=(FlashCrowd(at_s=1.0, ramp_s=0.5, hold_s=0.5, decay_s=0.5,
                            multiplier=2.0),))


def web_closed():
    return _web(traced=True)


def web_overload():
    """Past the knee, with a client timeout short enough to fire."""
    return _web(concurrency=300, duration=2.5, client_timeout_s=0.3,
                traced=True)


def web_overload_resilient():
    return _web(concurrency=300, duration=2.5, client_timeout_s=0.3,
                resilience=True)


def web_blackout():
    return _web(faults=_blackout(), traced=True)


def web_gray():
    return _web(faults=_gray(), concurrency=48)


def web_gray_resilient():
    return _web(faults=_gray(), concurrency=48,
                resilience=True, traced=True)


def web_blackout_resilient():
    return _web(faults=_blackout(), resilience=True,
                traced=True)


def web_day():
    return _web(shaped=_day(), duration=4.0, traced=True)


def web_day_blackout():
    return _web(shaped=_day(), duration=4.0, faults=_blackout(),
                traced=True)


def web_day_rotation():
    return _web(shaped=_day(), duration=4.0, rotation=True)



# -- off path: each plane's cells with the plane off ---------------------------

def _job_digest(report):
    return {"seconds": report.seconds, "joules": report.joules,
            "locality_fraction": report.locality_fraction}


def resilience_digests(resilience):
    """One web level and one job, faults off, and whether each carries
    a resilience ledger: with faults off an armed plane moves no digest
    of either cell, so the ledgers are what tell it from an off one."""
    from repro.resilience.report import GRAY_SEED

    deployment = WebServiceDeployment("edison", "1/4", seed=GRAY_SEED,
                                      resilience=resilience)
    level = deployment.run_level(24, duration=3.0, warmup=1.0)
    spec, config = JOB_FACTORIES["wordcount2"]("edison", 8)
    runner = JobRunner("edison", 8, config=config, seed=GRAY_SEED,
                       resilience=resilience)
    return {"web": dataclasses.asdict(level),
            "job": _job_digest(runner.run(spec)),
            "ledgers": {"web": deployment.resilience_ledger is not None,
                        "job": runner.resilience_ledger is not None}}


def _diurnal_day():
    return ShapedLoad(DiurnalShape(base_rps=60.0, peak_rps=240.0,
                                   period_s=24.0))


def autoscale_digests(autoscale):
    """One fixed-rate level, one shaped static day, one shaped hybrid
    day."""
    from repro.autoscale import HybridWebDeployment
    from repro.autoscale.report import DAY_SEED

    static = WebServiceDeployment("edison", "1/4", seed=DAY_SEED)
    level = static.run_level(24, duration=3.0, warmup=1.0)
    shaped = WebServiceDeployment("edison", "1/4", seed=DAY_SEED)
    shaped_level = shaped.run_shaped(_diurnal_day(), 24.0, calls=5)
    hybrid = HybridWebDeployment(edison_web=2, dell_web=1, cache=1,
                                 seed=DAY_SEED, autoscale=autoscale)
    hybrid_level = hybrid.run_day(_diurnal_day(), 24.0, calls=5)
    return {"level": dataclasses.asdict(level),
            "shaped": dataclasses.asdict(shaped_level),
            "hybrid": dataclasses.asdict(hybrid_level),
            "hybrid_joules": hybrid.meter.energy_joules()}


def carbon_digests(with_injector):
    """Every committed job kind on both platforms, run outside any
    carbon machinery (optionally with an idle empty-plan injector)."""
    from repro.carbon import CarbonDayPlan
    from repro.carbon.jobspec import CARBON_JOB_KINDS

    seed = CarbonDayPlan.load(os.path.join(EXPERIMENTS,
                                           "carbon_day.json")).seed
    digests = {}
    for kind in sorted(CARBON_JOB_KINDS):
        for platform, slaves in (("edison", 4), ("dell", 2)):
            spec, config = CARBON_JOB_KINDS[kind](platform)
            runner = JobRunner(platform, slaves, config=config, seed=seed)
            if with_injector:
                FaultInjector(runner.cluster)
            report = runner.run(spec)
            digests[f"{kind}/{platform}"] = {
                "seconds": report.seconds, "joules": report.joules,
                "locality": report.locality_fraction}
    return digests


def dvfs_digests(dvfs):
    """One fixed-rate web level, one shaped day, one MapReduce job —
    the web runs through the same attach helper the armed path uses,
    so "off" exercises the real integration."""
    from repro.dvfs import DVFS_SEED, attach_web

    static = WebServiceDeployment("edison", "1/4", seed=DVFS_SEED)
    assert attach_web(static, dvfs, until=3.0) is None
    level = static.run_level(24, duration=3.0, warmup=1.0)
    shaped = WebServiceDeployment("edison", "1/4", seed=DVFS_SEED)
    assert attach_web(shaped, dvfs, until=24.0) is None
    shaped_level = shaped.run_shaped(_diurnal_day(), 24.0, calls=5)
    spec, config = JOB_FACTORIES["wordcount2"]("edison", 8)
    runner = JobRunner("edison", 8, config=config, seed=DVFS_SEED)
    return {"level": dataclasses.asdict(level),
            "shaped": dataclasses.asdict(shaped_level),
            "job": _job_digest(runner.run(spec))}


def durability_digests(durability):
    """A plain job, a crash-faulted job and a partitioned job — all
    through the same attach helper the armed path uses, with no phi
    detector, heartbeat feeder, repair monitor or ledger left behind."""
    from repro.durability import DAY_SEED, attach_job

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
        digest = _job_digest(runner.run(spec))
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


def causality_digests(traced):
    """One web level and one terasort-mini job, untraced or traced."""
    from repro.carbon.jobspec import CARBON_JOB_KINDS

    seed = 20160901
    deployment = WebServiceDeployment("edison", "1/4", seed=seed,
                                      trace=Tracer() if traced else None)
    level = deployment.run_level(24, duration=3.0, warmup=1.0)
    spec, config = CARBON_JOB_KINDS["terasort-mini"]("edison")
    runner = JobRunner("edison", 4, config=config, seed=seed,
                       trace=Tracer() if traced else None)
    report = runner.run(spec)
    return {"web": dataclasses.asdict(level),
            "job": {"seconds": report.seconds, "joules": report.joules,
                    "locality": report.locality_fraction}}


# -- the rows -----------------------------------------------------------------

#: Row id -> the run whose fingerprint the store pins under it.
ROWS = {f"onpath.{f.__name__}": f for f in (
    job_plain, job_traced, job_speculation, job_crash,
    job_crash_speculation, job_partition, web_closed, web_overload,
    web_overload_resilient, web_blackout, web_blackout_resilient, web_gray,
    web_gray_resilient, web_day, web_day_blackout, web_day_rotation)}
ROWS.update({
    "offpath.resilience": functools.partial(resilience_digests, False),
    "offpath.autoscale": functools.partial(autoscale_digests, False),
    "offpath.carbon": functools.partial(carbon_digests, False),
    "offpath.dvfs": functools.partial(dvfs_digests, None),
    "offpath.durability": functools.partial(durability_digests, None),
    "offpath.causality": functools.partial(causality_digests, False),
})

#: Twin id -> (the row it must reproduce, its run).
TWINS = {
    "twin.carbon.idle_injector": (
        "offpath.carbon", functools.partial(carbon_digests, True)),
    "twin.causality.traced": (
        "offpath.causality", functools.partial(causality_digests, True)),
}


def fingerprint(run):
    """``run()``'s result as the JSON value the store holds."""
    return json.loads(json.dumps(run()))


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class _Absent:
    def __repr__(self):
        return "<absent>"


_ABSENT = _Absent()


def differences(pinned, got, path=""):
    """One line per field path (``trace.sha256``, ``level.ok_calls``)
    where ``got`` differs from ``pinned``."""
    if isinstance(pinned, dict) and isinstance(got, dict):
        keys = list(pinned) + [key for key in got if key not in pinned]
        return [line for key in keys for line in differences(
            pinned.get(key, _ABSENT), got.get(key, _ABSENT),
            f"{path}.{key}" if path else str(key))]
    if (isinstance(pinned, list) and isinstance(got, list)
            and len(pinned) == len(got)):
        return [line for index, (want, have) in enumerate(zip(pinned, got))
                for line in differences(want, have, f"{path}.{index}")]
    if pinned == got:
        return []
    return [f"{path or '(row)'}: pinned {pinned!r}, got {got!r}"]


def record(prefixes, rows, path):
    """Re-run every row of ``rows`` whose id starts with one of
    ``prefixes`` (all of them when there is none) and rewrite those rows
    of the store at ``path``; a stored row that matches but has no run is
    dropped.  Prints what moved."""
    def matches(row):
        return not prefixes or row.startswith(tuple(prefixes))

    old = load(path)
    store = {row: pinned for row, pinned in old.items() if not matches(row)}
    for row in sorted(rows):
        if matches(row):
            store[row] = fingerprint(rows[row])
            if row not in old:
                print(f"{row}: new")
                continue
            moved = differences(old[row], store[row])
            print(f"{row}: " + ("\n  ".join(["moved", *moved]) if moved
                                else "unchanged"))
    for row in sorted(set(old) - set(store)):
        print(f"{row}: dropped, no run")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(store.items())), handle, indent=1)
        handle.write("\n")


# -- the checks ---------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _pinned():
    return load(STORE)


#: Check id -> (the stored row it must equal, its run).
CHECKS = {**{row: (row, run) for row, run in ROWS.items()}, **TWINS}


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_pin(check):
    row, run = CHECKS[check]
    moved = differences(_pinned()[row], fingerprint(run))
    if moved:
        pytest.fail(f"{check} differs from row {row}:\n" + "\n".join(moved))


def test_every_row_has_a_run_and_every_run_a_row():
    stored, runs = set(_pinned()), set(ROWS)
    assert stored == runs, (
        f"stored with no run: {sorted(stored - runs)}; "
        f"run with no stored row: {sorted(runs - stored)}")


def test_recording_an_unchanged_tree_rewrites_no_byte(tmp_path):
    # Two rows run for real; the rest replay their stored value, which
    # test_pin has checked against a real run.
    copy = tmp_path / "pins.json"
    shutil.copy(STORE, copy)
    rows = {row: functools.partial(dict, pinned)
            for row, pinned in _pinned().items()}
    rows.update({row: ROWS[row]
                 for row in ("onpath.job_plain", "offpath.resilience")})
    record([], rows, str(copy))
    with open(STORE, "rb") as handle:
        assert copy.read_bytes() == handle.read()


def test_recording_a_prefix_rewrites_only_its_rows(tmp_path):
    copy = tmp_path / "pins.json"
    shutil.copy(STORE, copy)
    stubs = {row: functools.partial(dict, stub=row) for row in ROWS}
    record(["onpath.web"], stubs, str(copy))
    rewritten = load(str(copy))
    assert list(rewritten) == sorted(_pinned())
    for row, pinned in _pinned().items():
        assert rewritten[row] == ({"stub": row} if row.startswith("onpath.web")
                                  else pinned), row


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Re-record rows of experiments/pins.json.")
    parser.add_argument("--record", nargs="*", metavar="PREFIX",
                        required=True,
                        help="re-record the rows whose id starts with a "
                             "PREFIX; every row when none is given")
    record(parser.parse_args().record, ROWS, STORE)
