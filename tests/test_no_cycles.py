"""Ratchet: the event path leaves no reference cycles behind.

A finished process, a settled call and a cancelled timer must be freed
by reference counting alone.  Anything left in a cycle waits for
CPython's cyclic collector, whose passes grow with every live object of
a run.  Each case below runs a small seeded cell with automatic GC off
and keeps the run's own objects referenced, so ``gc.collect()`` finds
only what the run dropped inside a cycle.  A failure names the types.
"""

import dataclasses
import gc
import os
from collections import Counter

import pytest

from repro.autoscale import HybridWebDeployment
from repro.autoscale.report import DAY_SEED as AUTOSCALE_SEED
from repro.durability import DurabilityPlan, attach_job
from repro.dvfs import DvfsPlan, attach_web
from repro.faults import FaultInjector, FaultPlan
from repro.faults.models import cpu_throttle, node_crash, packet_loss
from repro.mapreduce import JOB_FACTORIES, JobRunner
from repro.mapreduce.runtime import JobFailed
from repro.sim import Interrupt, Simulation
from repro.telemetry import Telemetry
from repro.trace import Tracer
from repro.web import DiurnalShape, ShapedLoad, WebServiceDeployment
from tests.test_mapreduce_jobs import small_spec

EXPERIMENTS = os.path.join(os.path.dirname(__file__), os.pardir,
                           "experiments")


def web_level():
    deployment = WebServiceDeployment("edison", "1/8", seed=7)
    deployment.run_level(24, duration=2.0, warmup=0.5)
    return deployment


def web_level_resilient():
    """Loss, a throttle and a crash: hedges, deadlines, retries and a
    breaker all engage."""
    deployment = WebServiceDeployment("edison", "1/8", seed=7,
                                      resilience=True)
    deployment.attach_faults(FaultPlan(faults=(
        packet_loss("web-0", at=0.5, duration=100.0, loss=0.3),
        cpu_throttle("web-1", at=0.5, duration=100.0, factor=0.02),
        node_crash("web-2", at=0.8, repair_s=1.0))))
    deployment.run_level(48, duration=3.0, warmup=0.5)
    return deployment


def dvfs_flash_day():
    """The committed ``flash`` day: ondemand governor, exemplar
    telemetry and a Tracer."""
    plan = DvfsPlan.load(os.path.join(EXPERIMENTS, "dvfs_day.json"))
    deployment = WebServiceDeployment("edison", plan.scale("edison"),
                                      seed=plan.seed, trace=Tracer())
    telemetry = Telemetry(exemplars=True)
    telemetry.attach_web(deployment, until=plan.duration_s)
    plane = attach_web(deployment, plan.config("ondemand"),
                       until=plan.duration_s, telemetry=telemetry)
    deployment.run_shaped(plan.shapes["flash"], plan.duration_s,
                          calls=plan.calls, collect_delays=True)
    telemetry.slo_report()
    return deployment, telemetry, plane


def mapreduce_job():
    runner = JobRunner("edison", 4, seed=5)
    runner.run(small_spec())
    return runner


def durability_arm():
    """One rack-aware arm of the committed durability day: a switch
    down, partitions, a dead disk, phi detection and re-replication."""
    plan = DurabilityPlan.load(os.path.join(EXPERIMENTS,
                                            "durability_day.json"))
    spec, config = JOB_FACTORIES[plan.job]("dell", plan.slaves)
    config = dataclasses.replace(config, replication=plan.replications[-1])
    runner = JobRunner("dell", plan.slaves, config=config, seed=plan.seed,
                       racks=plan.racks)
    injector = FaultInjector(runner.cluster, plan.faults_for("dell"),
                             detection_s=plan.detection_s)
    ledger = attach_job(runner, plan.config(True))
    try:
        runner.run(spec)
        runner.sim.run(until=runner.sim.now + plan.settle_s)
    except JobFailed:
        pass
    return runner, injector, ledger


def autoscale_day():
    shape = ShapedLoad(DiurnalShape(base_rps=60.0, peak_rps=240.0,
                                    period_s=24.0))
    deployment = HybridWebDeployment(edison_web=2, dell_web=1, cache=1,
                                     seed=AUTOSCALE_SEED, autoscale=True)
    telemetry = Telemetry()
    telemetry.attach_web(deployment, until=24.0)
    deployment.run_day(shape, 24.0, calls=5)
    return deployment, telemetry


def fail(depth):
    if depth:
        yield from fail(depth - 1)
    yield 1.0
    raise ValueError("boom")


def process_that_raises():
    """A process whose generator raises, caught by the one waiting on
    it, and one nobody waits on that raises after a deeper call."""
    sim = Simulation()
    caught = []

    def waiter():
        try:
            yield sim.process(fail(0))
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter())
    orphan = sim.process(fail(3))
    orphan._defused = True      # nobody waits: not a run failure
    sim.run()
    assert caught == ["boom"] and not orphan.ok
    return sim, caught


def process_interrupted():
    """One interrupted process lets the Interrupt end it; another
    catches it and returns."""
    sim = Simulation()
    outcomes = []

    def sleeper(catch):
        try:
            yield sim.timeout(10.0)
        except Interrupt:
            if not catch:
                raise
        outcomes.append(catch)

    def interrupter(victims):
        yield 1.0
        for victim in victims:
            victim.interrupt("stop")

    victims = [sim.process(sleeper(catch)) for catch in (False, True)]
    victims[0]._defused = True      # nobody waits: not a run failure
    sim.process(interrupter(victims))
    sim.run()
    assert outcomes == [True] and not victims[0].ok and victims[1].ok
    return sim, outcomes


def waiter_holds_the_failed_process():
    """A waiter catches a failure while it still holds the failed
    process in a local, whose value is the exception it caught."""
    sim = Simulation()
    caught = []

    def victim():
        yield 1.0
        raise RuntimeError("boom")

    def waiter():
        process = sim.process(victim())
        try:
            yield process
        except RuntimeError:
            pass
        caught.append(process.ok)

    sim.process(waiter())
    sim.run()
    assert caught == [False]
    return sim, caught


CASES = (web_level, web_level_resilient, dvfs_flash_day, mapreduce_job,
         durability_arm, autoscale_day, process_that_raises,
         process_interrupted, waiter_holds_the_failed_process)


def cyclic_garbage(case):
    """Run ``case`` with automatic GC off; return what only the cyclic
    collector could free, as a type-name count."""
    # An earlier run's suspended generators are finalized by the first
    # pass, which frees nothing else; a later pass frees the rest.
    for _ in range(3):
        gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        kept = case()       # the run's objects stay referenced
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    del kept
    return found


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_run_leaves_no_cyclic_garbage(case):
    found = cyclic_garbage(case)
    assert not found, \
        f"{sum(found.values())} objects in cycles: {found.most_common(8)}"
