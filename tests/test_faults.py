"""Tests for repro.faults: models, injector mechanics, the no-fault
bit-identity guarantee, and the headline kill-one-node experiments."""

import math

import pytest

from repro.cluster import edison_cluster
from repro.faults import (AvailabilityReport, Fault, FaultInjector,
                          FaultPlan, RecurringFault, cpu_throttle,
                          disk_failure, node_crash, packet_loss,
                          single_node_kill, web_kill_experiment)
from repro.mapreduce import JOB_FACTORIES, JobRunner, run_job
from repro.mapreduce.runtime import JobFailed
from repro.sim import Simulation
from repro.trace import Tracer
from repro.web import WebServiceDeployment
from tests.test_mapreduce_jobs import small_spec


# -- models -------------------------------------------------------------------

def test_unknown_fault_kind_rejected():
    # A --fault-plan file naming a kind the model lacks (power, nic and
    # disk_stall included) fails loudly instead of injecting nothing.
    for kind in ("gremlin", "power", "nic", "disk_stall"):
        with pytest.raises(ValueError):
            Fault(kind=kind, node="a", at=0, duration=1)
        with pytest.raises(ValueError):
            RecurringFault(kind=kind, node="a", mtbf_s=10, mttr_s=1)


def test_fault_timing_validation():
    with pytest.raises(ValueError):
        node_crash("a", at=-1, repair_s=5)
    with pytest.raises(ValueError):
        node_crash("a", at=0, repair_s=0)
    with pytest.raises(ValueError):
        Fault(kind="crash", node="", at=0, duration=1)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("value", [NAN, INF])
def test_fault_onset_must_be_a_finite_time(value):
    # NaN used to pass ``at < 0`` and start the outage at t=0.
    with pytest.raises(ValueError, match="Fault: field 'at'"):
        node_crash("a", at=value, repair_s=5)


def test_fault_duration_rejects_nan():
    with pytest.raises(ValueError, match="Fault: field 'duration'"):
        node_crash("a", at=1.0, repair_s=NAN)
    with pytest.raises(ValueError, match="Fault: field 'duration'"):
        Fault(kind="disk_fail", node="a", at=1.0, duration=NAN)


@pytest.mark.parametrize("field", ["mtbf_s", "mttr_s", "start"])
@pytest.mark.parametrize("value", [NAN, INF])
def test_recurring_fault_times_must_be_finite(field, value):
    fields = {"mtbf_s": 60.0, "mttr_s": 5.0, "start": 0.0, field: value}
    with pytest.raises(ValueError, match=f"RecurringFault: field '{field}'"):
        RecurringFault(kind="crash", node="a", **fields)


def test_plan_with_nan_onset_fails_at_load(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"faults": [{"kind": "crash", "node": "a", '
                    '"at": NaN, "duration": 5}]}')
    with pytest.raises(ValueError, match="Fault: field 'at'"):
        FaultPlan.load(str(path))


def test_only_disk_fail_may_be_permanent():
    with pytest.raises(ValueError):
        Fault(kind="crash", node="a", at=0)        # duration defaults to inf
    fault = disk_failure("a", at=3)
    assert math.isinf(fault.duration)


def test_recurring_disk_fail_rejected():
    with pytest.raises(ValueError):
        RecurringFault(kind="disk_fail", node="a", mtbf_s=100, mttr_s=10)
    with pytest.raises(ValueError):
        RecurringFault(kind="crash", node="a", mtbf_s=0, mttr_s=10)


def test_plan_nodes_and_check_against():
    plan = FaultPlan(
        faults=(node_crash("a", 1, 2), node_crash("a", 9, 2),
                disk_failure("b", 5)),
        recurring=(RecurringFault(kind="packet_loss", node="c", mtbf_s=50,
                                  mttr_s=5),))
    assert len(plan) == 4
    assert not plan.is_empty
    assert plan.nodes() == ["a", "b", "c"]
    plan.check_against(["a", "b", "c", "d"])
    with pytest.raises(ValueError):
        plan.check_against(["a", "b"])
    assert FaultPlan().is_empty


def test_plan_save_load_roundtrip(tmp_path):
    plan = FaultPlan(
        faults=(node_crash("n0", at=2, repair_s=5),
                cpu_throttle("n1", at=1, duration=4, factor=0.25),
                disk_failure("n2", at=7)),
        recurring=(RecurringFault(kind="packet_loss", node="n0", mtbf_s=60,
                                  mttr_s=2, loss=0.2, start=10),))
    path = tmp_path / "plan.json"
    plan.save(str(path))
    assert FaultPlan.load(str(path)) == plan


def test_plan_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        FaultPlan.load(str(path))
    path.write_text('{"faults": [{"kind": "crash", "node": "a", "att": 1}]}')
    with pytest.raises(ValueError):
        FaultPlan.load(str(path))
    path.write_text('{"surprise": []}')
    with pytest.raises(ValueError):
        FaultPlan.load(str(path))


# -- injector mechanics -------------------------------------------------------

def test_empty_plan_schedules_nothing():
    sim = Simulation()
    cluster = edison_cluster(sim, 2)
    injector = FaultInjector(cluster)
    sim.run()
    assert sim.now == 0          # no fault processes were created
    assert injector.records == []
    assert all(injector.is_up(n) for n in cluster.servers)


def test_second_injector_rejected():
    sim = Simulation()
    cluster = edison_cluster(sim, 2)
    FaultInjector(cluster)
    with pytest.raises(RuntimeError):
        FaultInjector(cluster)


def test_plan_checked_against_cluster_nodes():
    sim = Simulation()
    cluster = edison_cluster(sim, 2)
    with pytest.raises(ValueError):
        FaultInjector(cluster, single_node_kill("no-such-node", 1.0))


def test_crash_status_detection_and_mttr():
    sim = Simulation()
    cluster = edison_cluster(sim, 2)
    injector = FaultInjector(cluster, FaultPlan(
        faults=(node_crash("edison-0", at=1.0, repair_s=2.0),)),
        detection_s=0.25)
    sim.run(until=1.1)
    assert not injector.is_up("edison-0")
    assert not injector.detected_down("edison-0")   # within the window
    assert injector.is_up("edison-1")
    sim.run(until=1.5)
    assert injector.detected_down("edison-0")
    assert injector.went_down_since("edison-0", 0.5)
    assert not injector.went_down_since("edison-0", 2.0)
    sim.run(until=4.0)
    assert injector.is_up("edison-0")
    assert injector.downtime("edison-0") == pytest.approx(2.0)
    assert injector.mean_mttr() == pytest.approx(2.0)
    # 2 nodes x 4 s = 8 node-seconds, 2 lost.
    assert injector.mean_availability(until=4.0) == pytest.approx(0.75)
    report = AvailabilityReport.from_injector(injector, until=4.0)
    assert report.faults_injected == 1
    assert report.open_outages == 0
    assert report.mean_availability == pytest.approx(0.75)
    assert len(report.lines()) == 4


def test_nic_degrade_restores_exact_capacity():
    sim = Simulation()
    cluster = edison_cluster(sim, 2)
    tx, rx = cluster.topology.nic_segments("edison-0")
    base_tx, base_rx = tx.capacity_Bps, rx.capacity_Bps
    FaultInjector(cluster, FaultPlan(faults=(
        packet_loss("edison-0", at=0.5, duration=1.0, loss=0.5),)))
    sim.run(until=1.0)
    assert tx.capacity_Bps == base_tx * 0.5
    assert rx.capacity_Bps == base_rx * 0.5
    sim.run()
    # Bit-identical restore, not base*0.5/0.5.
    assert tx.capacity_Bps == base_tx
    assert rx.capacity_Bps == base_rx


def test_disk_failure_is_permanent():
    sim = Simulation()
    cluster = edison_cluster(sim, 2)
    injector = FaultInjector(cluster, FaultPlan(faults=(
        disk_failure("edison-0", at=1.0),)))
    sim.run()
    assert injector.disk_failed("edison-0")
    assert injector.is_up("edison-0")        # node serves, disk is gone
    assert injector.records[0].end is None   # never repaired


def test_recurring_faults_are_seeded_and_reproducible():
    def run(seed):
        sim = Simulation()
        cluster = edison_cluster(sim, 2)
        injector = FaultInjector(cluster, FaultPlan(recurring=(
            RecurringFault(kind="crash", node="edison-0", mtbf_s=20,
                           mttr_s=2),)), seed=seed)
        sim.run(until=200.0)
        return [(r.start, r.end) for r in injector.records]

    first = run(5)
    assert first == run(5)
    assert first != run(6)
    assert len(first) > 2


# -- the no-fault bit-identity guarantee --------------------------------------

def test_empty_plan_keeps_web_run_bit_identical():
    kwargs = dict(duration=1.5, warmup=0.5)
    plain = WebServiceDeployment("edison", "1/8", seed=3).run_level(
        16, **kwargs)
    dep = WebServiceDeployment("edison", "1/8", seed=3)
    dep.attach_faults(FaultPlan())
    chaos = dep.run_level(16, **kwargs)
    assert chaos == plain                    # bit-identical LevelResult


def test_empty_plan_keeps_job_run_bit_identical():
    plain = run_job("edison", 4, small_spec())
    runner = JobRunner("edison", 4)
    FaultInjector(runner.cluster, FaultPlan())
    chaos = runner.run(small_spec())
    assert chaos.seconds == plain.seconds
    assert chaos.joules == plain.joules


# -- the headline experiments -------------------------------------------------

def test_killing_one_edison_costs_marginal_web_goodput():
    """The paper's pitch: losing 1 of 35 Edisons is a ~1/35 event.

    At saturation, killing one of the 24 web servers for the whole
    measurement window sheds its capacity share of goodput — about
    4 % — and nothing else: no cascade, no unserved survivors.
    """
    result = web_kill_experiment(concurrency=2048, duration=4.0,
                                 warmup=1.0, kill_at=0.0)
    assert result.web_servers == 24
    assert result.faulted.ok_calls < result.baseline.ok_calls
    assert abs(result.goodput_loss_fraction - 1 / 35) <= 0.02
    # The loss tracks the capacity-share prediction, not a collapse.
    assert abs(result.goodput_loss_fraction
               - result.expected_loss_fraction) <= 0.02
    assert result.availability.open_outages == 1


def test_wordcount_survives_losing_a_slave():
    """Killing a slave mid-job loses completed map output; the job
    still finishes through re-execution and HDFS replica fallback."""
    baseline = JobRunner("edison", 8, seed=7).run(small_spec())
    tracer = Tracer()
    runner = JobRunner("edison", 8, seed=7, trace=tracer)
    FaultInjector(runner.cluster, single_node_kill("edison-slave-0", 75.0))
    report = runner.run(small_spec())
    assert report.seconds > baseline.seconds     # recovery costs time
    counts = runner.counts
    assert counts.lost_map_count > 0             # completed maps were lost
    assert counts.pending_recoveries == 0
    assert counts.reduces_done == small_spec().reduce_tasks
    # Failure detection and recovery are visible in the trace.
    fault_events = [e for e in tracer.log if e.category == "fault"]
    assert any(e.name == "fault.crash" for e in fault_events)
    assert any(e.name == "node.blacklist" for e in tracer.log)


def test_finished_job_ignores_later_node_loss():
    """A crash after the job ended re-runs none of its maps: no remap
    burns CPU on the survivors and no container stays held."""
    spec, config = JOB_FACTORIES["wordcount2"]("edison", 4)
    runner = JobRunner("edison", 4, config=config, seed=5)
    FaultInjector(runner.cluster, FaultPlan(faults=(
        node_crash("edison-slave-1", at=1100.0, repair_s=30.0),)))
    report = runner.run(spec)
    assert report.seconds < 1100.0
    busy = [s.cpu.busy_vcore_seconds() for s in runner.slave_servers]
    runner.sim.run(until=1400.0)
    assert [s.cpu.busy_vcore_seconds()
            for s in runner.slave_servers] == busy
    for nm in runner.yarn.nodes.values():
        assert nm.free_mem_mb == nm.total_mem_mb
    assert runner.counts.lost_map_count == 0


def test_job_fails_cleanly_when_all_replicas_are_gone():
    runner = JobRunner("edison", 4)
    FaultInjector(runner.cluster, FaultPlan(faults=tuple(
        disk_failure(f"edison-slave-{i}", at=20.0) for i in range(4))))
    with pytest.raises(JobFailed):
        runner.run(small_spec())


# -- admin power states (the carbon plane's suspend lever) --------------------

def test_admin_double_power_off_is_idempotent():
    sim = Simulation()
    cluster = edison_cluster(sim, 2)
    injector = FaultInjector(cluster)
    events = []
    injector.add_listener(lambda edge, node, kind:
                          events.append((edge, node, kind)))
    injector.admin_power_off("edison-0")
    injector.admin_power_off("edison-0")         # second call is a no-op
    assert injector.admin_state("edison-0") == "off"
    assert events == [("down", "edison-0", "admin")]
    server = cluster.servers["edison-0"]
    assert injector.node_watts(server, server.utilization_window()) == 0.0
    injector.admin_begin_boot("edison-0")
    injector.admin_power_on("edison-0")
    assert injector.is_up("edison-0")
    # Admin round trips write no records and accrue no downtime.
    assert injector.records == []
    assert injector.downtime("edison-0") == 0.0


def test_admin_boot_requires_off_but_power_on_is_idempotent():
    sim = Simulation()
    cluster = edison_cluster(sim, 1)
    injector = FaultInjector(cluster)
    events = []
    injector.add_listener(lambda edge, node, kind:
                          events.append((edge, node, kind)))
    with pytest.raises(RuntimeError):
        injector.admin_begin_boot("edison-0")    # not off
    injector.admin_power_on("edison-0")          # already up: a no-op
    assert injector.is_up("edison-0")
    assert events == []                          # no spurious "up" edge


def test_crash_while_admin_off_counts_one_fault_record():
    sim = Simulation()
    cluster = edison_cluster(sim, 2)
    injector = FaultInjector(cluster, FaultPlan(
        faults=(node_crash("edison-0", at=1.0, repair_s=2.0),)))
    injector.admin_power_off("edison-0")
    sim.run(until=2.0)                           # crash lands while parked
    assert not injector.is_up("edison-0")
    assert len(injector.records) == 1            # the crash, and only it
    sim.run(until=4.0)                           # fault repaired...
    assert len(injector.records) == 1
    assert injector.records[0].end == pytest.approx(3.0)
    assert not injector.is_up("edison-0")        # ...but still parked
    injector.admin_begin_boot("edison-0")
    injector.admin_power_on("edison-0")
    assert injector.is_up("edison-0")
    # Downtime belongs to the fault alone, not the admin park.
    assert injector.downtime("edison-0") == pytest.approx(2.0)
