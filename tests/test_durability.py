"""Tests for repro.durability: rack-aware placement, the repair loop,
block conservation, the ledger and the committed day's report."""

import random

import pytest

from repro.cluster.builders import hadoop_cluster
from repro.core.records import find
from repro.durability import (DurabilityArm, DurabilityConfig,
                              DurabilityLedger, DurabilityPlan,
                              DurabilityReport, attach_job)
from repro.durability.ledger import CATEGORIES, SAMPLE_INTERVAL_S
from repro.faults import (FaultInjector, FaultPlan, PhiAccrualDetector,
                          disk_failure, node_crash, rack_partition,
                          switch_down)
from repro.mapreduce.hdfs import (REPAIR_STREAMS, REPAIR_THROTTLE_BPS,
                                  BlockUnavailable, Hdfs, HdfsBlock)
from repro.sim import Simulation


def hdfs_fixture(slaves=4, replication=2, rack_aware=False, racks=2,
                 plan=None):
    sim = Simulation()
    cluster = hadoop_cluster(sim, "edison", slaves, racks=racks)
    injector = FaultInjector(cluster, plan)
    datanodes = [cluster.servers[f"edison-slave-{i}"]
                 for i in range(slaves)]
    hdfs = Hdfs(sim, cluster.topology, datanodes, block_bytes=1 << 20,
                replication=replication, rng=random.Random(42))
    hdfs.rack_aware = rack_aware
    return sim, cluster, injector, hdfs


def arm_repair(sim, hdfs, ledger=None):
    """Arm the repair loop behind a phi detector fed by seeded
    heartbeats from every datanode, as the durability plane does."""
    from repro.durability.plane import _heartbeat_feeder
    from repro.sim import RngStreams
    detector = PhiAccrualDetector(sim)
    rng = RngStreams(1)
    for node in hdfs.datanodes:
        sim.process(_heartbeat_feeder(sim, detector, node,
                                      rng.stream(f"phi.{node}")))
    return hdfs.enable_repair(detector, ledger=ledger)


# -- config -------------------------------------------------------------------

def test_config_validation():
    # The repair loop runs at its constant throttle and stream count;
    # these are the bounds the pipeline needs.
    assert REPAIR_THROTTLE_BPS > 0
    assert REPAIR_STREAMS >= 1
    _, _, _, hdfs = hdfs_fixture()
    assert hdfs.monitor is None


def test_config_roundtrip_and_markers():
    config = DurabilityConfig(rack_aware=True)
    again = DurabilityConfig.from_dict(config.to_dict())
    assert again == config


# -- rack-aware placement -----------------------------------------------------

def test_rack_aware_placement_spreads_replicas_across_racks():
    _, _, _, hdfs = hdfs_fixture(rack_aware=True)
    record = hdfs.stage_file("input", 8 << 20)
    rack_of = hdfs.topology.rack_of
    for block in record.blocks:
        assert len({rack_of(r) for r in block.replicas}) == 2


def test_oblivious_placement_can_trap_a_block_in_one_rack():
    _, _, _, hdfs = hdfs_fixture(rack_aware=False)
    record = hdfs.stage_file("input", 64 << 20)
    rack_of = hdfs.topology.rack_of
    racks_per_block = [len({rack_of(r) for r in b.replicas})
                       for b in record.blocks]
    assert 1 in racks_per_block       # at least one single-rack block


def test_triple_replication_covers_both_racks_then_reuses():
    _, _, _, hdfs = hdfs_fixture(replication=3, rack_aware=True)
    record = hdfs.stage_file("input", 4 << 20)
    rack_of = hdfs.topology.rack_of
    for block in record.blocks:
        assert len(block.replicas) == 3
        assert len({rack_of(r) for r in block.replicas}) == 2


# -- same-rack read preference ------------------------------------------------

def test_remote_read_prefers_same_rack_replica():
    sim, _, _, hdfs = hdfs_fixture()
    record = hdfs.stage_file("input", 1 << 20)
    block = record.blocks[0]
    # Pin the replicas: one in each rack, reader holds neither.
    block.replicas = ("edison-slave-0", "edison-slave-2")
    reader = "edison-slave-1"        # rack-0, same as slave-0
    sim.process(hdfs.read_block(reader, block))
    sim.run()
    assert hdfs.same_rack_read_bytes == block.size_bytes
    assert hdfs.cross_rack_read_bytes == 0.0


def test_remote_read_crosses_racks_only_when_it_must():
    sim, _, _, hdfs = hdfs_fixture()
    record = hdfs.stage_file("input", 1 << 20)
    block = record.blocks[0]
    block.replicas = ("edison-slave-2", "edison-slave-3")   # rack-1 only
    sim.process(hdfs.read_block("edison-slave-0", block))
    sim.run()
    assert hdfs.same_rack_read_bytes == 0.0
    assert hdfs.cross_rack_read_bytes == block.size_bytes


def test_local_read_counts_in_neither_bucket():
    sim, _, _, hdfs = hdfs_fixture()
    record = hdfs.stage_file("input", 1 << 20)
    block = record.blocks[0]
    sim.process(hdfs.read_block(block.replicas[0], block))
    sim.run()
    assert hdfs.same_rack_read_bytes == 0.0
    assert hdfs.cross_rack_read_bytes == 0.0


# -- reads under partitions ---------------------------------------------------

def test_read_stalls_through_partition_and_completes_after_heal():
    plan = FaultPlan(faults=(
        rack_partition("edison-rack-1", at=0.0, duration=5.0),))
    sim, _, _, hdfs = hdfs_fixture(plan=plan)
    record = hdfs.stage_file("input", 1 << 20)
    block = record.blocks[0]
    block.replicas = ("edison-slave-2", "edison-slave-3")   # both severed
    done = []

    def reader():
        yield from hdfs.read_block("edison-slave-0", block)
        done.append(sim.now)

    sim.process(reader())
    sim.run()
    # The copy still exists; the read waited out the cut instead of
    # declaring data loss.
    assert done and done[0] >= 5.0


def test_read_raises_when_no_intact_copy_exists():
    plan = FaultPlan(faults=(disk_failure("edison-slave-2", at=0.5),))
    sim, _, _, hdfs = hdfs_fixture(replication=1, plan=plan)
    record = hdfs.stage_file("input", 1 << 20)
    block = record.blocks[0]
    block.replicas = ("edison-slave-2",)
    failures = []

    def reader():
        yield sim.timeout(1.0)
        try:
            yield from hdfs.read_block("edison-slave-0", block)
        except BlockUnavailable:
            failures.append(sim.now)

    sim.process(reader())
    sim.run()
    assert failures == [1.0]          # fail-fast: the bytes are gone


# -- the repair loop ----------------------------------------------------------

def test_repair_requires_a_fault_injector():
    sim = Simulation()
    cluster = hadoop_cluster(sim, "edison", 2, racks=2)
    datanodes = [cluster.servers["edison-slave-0"],
                 cluster.servers["edison-slave-1"]]
    hdfs = Hdfs(sim, cluster.topology, datanodes, block_bytes=1 << 20,
                replication=1, rng=random.Random(1))
    detector = PhiAccrualDetector(sim)
    with pytest.raises(RuntimeError):
        hdfs.enable_repair(detector)
    # And repair cannot be armed twice.
    FaultInjector(cluster)
    hdfs.enable_repair(detector)
    with pytest.raises(RuntimeError):
        hdfs.enable_repair(detector)


def test_crash_triggers_confirmed_re_replication():
    plan = FaultPlan(faults=(
        node_crash("edison-slave-0", at=2.0, repair_s=60.0),))
    sim, _, _, hdfs = hdfs_fixture(plan=plan)
    ledger = DurabilityLedger(sim, hdfs)
    arm_repair(sim, hdfs, ledger)
    record = hdfs.stage_file("input", 4 << 20)
    sim.run(until=30.0)
    monitor = hdfs.monitor
    assert monitor.repairs_completed > 0
    for block in record.blocks:
        readable = hdfs.readable_replicas(block)
        assert len(readable) == hdfs.replication
        assert "edison-slave-0" not in readable
    assert ledger.repair_bytes == monitor.repair_bytes
    assert ledger.joules["re_replication"] > 0.0


def test_blip_inside_confirmation_window_is_never_repaired():
    plan = FaultPlan(faults=(
        node_crash("edison-slave-0", at=2.0, repair_s=0.5),))
    sim, _, _, hdfs = hdfs_fixture(plan=plan)
    arm_repair(sim, hdfs)
    hdfs.stage_file("input", 4 << 20)
    sim.run(until=20.0)
    assert hdfs.monitor.repairs_completed == 0


def test_repair_defers_when_no_target_exists_then_resumes():
    # Two datanodes, r=2: when one dies there is nowhere to put a new
    # copy — the block parks as deferred until the node returns.
    plan = FaultPlan(faults=(
        node_crash("edison-slave-0", at=2.0, repair_s=10.0),))
    sim, _, _, hdfs = hdfs_fixture(slaves=2, plan=plan)
    arm_repair(sim, hdfs)
    hdfs.stage_file("input", 2 << 20)
    sim.run(until=30.0)
    monitor = hdfs.monitor
    assert monitor.repairs_deferred > 0
    # After the node rebooted every block is fully replicated again.
    for block in hdfs.blocks.values():
        assert len(hdfs.readable_replicas(block)) == hdfs.replication


# -- block conservation under a rack cut (the satellite invariant) ------------

def test_single_rack_switch_down_never_loses_or_hides_a_block():
    """Rack-aware r=2 + one dead ToR: every block stays readable from
    the surviving side for the whole outage, conservation holds at
    every census, and after the heal every block is back to full
    replication."""
    plan = FaultPlan(faults=(
        switch_down("edison-rack-0", at=3.0, duration=8.0),))
    sim, _, _, hdfs = hdfs_fixture(rack_aware=True, plan=plan)
    ledger = DurabilityLedger(sim, hdfs)
    arm_repair(sim, hdfs, ledger)
    record = hdfs.stage_file("input", 8 << 20)
    sim.process(ledger.run(until=40.0))
    majority = ["edison-slave-2", "edison-slave-3"]
    outcomes = {"unavailable": 0, "reads": 0}

    def reader(at):
        yield sim.timeout(at)
        for i, block in enumerate(record.blocks):
            try:
                yield from hdfs.read_block(majority[i % 2], block)
                outcomes["reads"] += 1
            except BlockUnavailable:       # pragma: no cover - the bug
                outcomes["unavailable"] += 1

    for at in (4.0, 6.0, 9.0):             # all inside the outage
        sim.process(reader(at))
    sim.run(until=41.0)
    assert outcomes["unavailable"] == 0
    assert outcomes["reads"] == 3 * len(record.blocks)
    assert ledger.conservation_violations == 0
    assert ledger.blocks_lost == 0
    assert ledger.loss_events == []
    assert ledger.unavailable_block_s == 0.0
    for block in hdfs.blocks.values():
        assert len(hdfs.readable_replicas(block)) >= hdfs.replication
    health = hdfs.health_summary()
    assert health["blocks_created"] == \
        health["blocks_live"] + health["blocks_lost"]
    assert health["under_replicated"] == 0


def test_disk_failure_with_r1_is_recorded_as_loss():
    plan = FaultPlan(faults=(disk_failure("edison-slave-1", at=2.0),))
    sim, _, _, hdfs = hdfs_fixture(replication=1, plan=plan)
    ledger = DurabilityLedger(sim, hdfs)
    hdfs.stage_file("input", 4 << 20)
    sim.process(ledger.run(until=10.0))
    sim.run(until=11.0)
    assert ledger.blocks_lost > 0
    assert len(ledger.loss_events) == 1
    event = ledger.loss_events[0]
    assert event["blocks"] == len(event["block_ids"]) == ledger.blocks_lost
    assert event["t"] >= 2.0
    # Conservation still holds: the census agrees blocks are *lost*,
    # not mislaid.
    assert ledger.conservation_violations == 0
    health = hdfs.health_summary()
    assert health["blocks_created"] == \
        health["blocks_live"] + health["blocks_lost"]


# -- the one-pass census against the per-block queries ------------------------

def reference_census(hdfs):
    """The two-walk census the ledger used to take: counts from
    intact/readable replicas per block, then the lost ids on a second
    pass."""
    live = lost = under = unavailable = 0
    for block in hdfs.blocks.values():
        if hdfs.intact_replicas(block):
            live += 1
            readable = len(hdfs.readable_replicas(block))
            if readable < hdfs.replication:
                under += 1
            if readable == 0:
                unavailable += 1
        else:
            lost += 1
    lost_ids = [b.block_id for b in hdfs.blocks.values()
                if not hdfs.intact_replicas(b)]
    counts = {"blocks_created": len(hdfs.blocks), "blocks_live": live,
              "blocks_lost": lost, "under_replicated": under,
              "unavailable": unavailable}
    return counts, lost_ids


NODE_STATES = ("disk_fail", "crash", "admin_off", "partition")


def set_node_state(injector, node, state):
    status = injector.status[node]
    if state == "disk_fail":
        status.disk_failed = True
    elif state == "crash":
        status.down_tokens += 1
    elif state == "admin_off":
        status.admin_off = True
    else:
        status.unreachable_tokens += 1


def random_block_map(hdfs, rng, blocks=40):
    """Replace the block map with random replica tuples (empty ones
    included) over the datanodes."""
    names = list(hdfs.datanodes)
    hdfs.blocks = {}
    for bid in range(blocks):
        k = rng.randint(0, min(len(names), hdfs.replication + 1))
        hdfs.blocks[bid] = HdfsBlock(bid, 1 << 20,
                                     tuple(rng.sample(names, k)))
    hdfs._next_block = blocks


@pytest.mark.parametrize("states", [(s,) for s in NODE_STATES]
                         + [NODE_STATES])
def test_census_matches_per_block_queries(states):
    rng = random.Random("+".join(states))
    for _trial in range(25):
        _, _, injector, hdfs = hdfs_fixture(
            slaves=6, replication=rng.randint(1, 3))
        random_block_map(hdfs, rng)
        for node in hdfs.datanodes:
            for state in states:
                if rng.random() < 0.3:
                    set_node_state(injector, node, state)
        assert hdfs.census() == reference_census(hdfs)
        assert hdfs.health_summary() == reference_census(hdfs)[0]


def test_census_matches_per_block_queries_without_faults():
    rng = random.Random(7)
    sim = Simulation()
    cluster = hadoop_cluster(sim, "edison", 4)
    hdfs = Hdfs(sim, cluster.topology, list(cluster.servers.values())[1:],
                block_bytes=1 << 20, replication=2, rng=random.Random(1))
    assert sim.faults is None
    random_block_map(hdfs, rng)
    counts, lost_ids = hdfs.census()
    assert (counts, lost_ids) == reference_census(hdfs)
    assert lost_ids == [b.block_id for b in hdfs.blocks.values()
                        if not b.replicas]


def test_dropping_a_block_from_the_map_is_a_conservation_violation():
    sim, _, _, hdfs = hdfs_fixture()
    hdfs.stage_file("input", 4 << 20)
    ledger = DurabilityLedger(sim, hdfs)
    ledger.sample()
    assert ledger.conservation_violations == 0
    del hdfs.blocks[next(iter(hdfs.blocks))]
    health = ledger.sample()
    assert health["blocks_created"] == 4
    assert health["blocks_live"] + health["blocks_lost"] == 3
    assert ledger.conservation_violations == 1


# -- the ledger ---------------------------------------------------------------

def test_ledger_charge_validation():
    sim, _, _, hdfs = hdfs_fixture()
    ledger = DurabilityLedger(sim, hdfs)
    with pytest.raises(ValueError):
        ledger.charge("gremlins", 1.0, 1.0)
    with pytest.raises(ValueError):
        ledger.charge("re_replication", -1.0, 1.0)
    with pytest.raises(ValueError):
        ledger.charge("re_replication", 1.0, -1.0)
    assert sum(ledger.joules.values()) == 0.0
    assert tuple(ledger.joules) == CATEGORIES
    assert SAMPLE_INTERVAL_S > 0.0


def test_ledger_integrates_under_replication_over_time():
    plan = FaultPlan(faults=(
        node_crash("edison-slave-0", at=1.0, repair_s=4.0),))
    sim, _, _, hdfs = hdfs_fixture(plan=plan)
    ledger = DurabilityLedger(sim, hdfs)
    hdfs.stage_file("input", 4 << 20)     # 4 blocks, r=2
    sim.process(ledger.run(until=10.0))
    sim.run(until=11.0)
    held = [b for b in hdfs.blocks.values()
            if "edison-slave-0" in b.replicas]
    # Step integration: each held block contributes ~4 block-seconds.
    assert ledger.under_replicated_block_s == \
        pytest.approx(4.0 * len(held), abs=2.0 * len(held))
    assert ledger.max_under_replicated == len(held)
    assert ledger.blocks_lost == 0        # the bytes survived the crash
    assert len(ledger.samples) > 5
    assert ledger.conservation_violations == 0


def test_marginal_io_watts_follows_the_power_weights():
    sim, cluster, _, hdfs = hdfs_fixture()
    server = cluster.servers["edison-slave-0"]
    power = server.spec.power
    expected = (power.busy_w - power.idle_w) * (
        power.weights["disk"] + power.weights["net"])
    assert server.marginal_io_watts() == pytest.approx(expected)
    assert expected > 0.0


def test_to_repair_costs_mirrors_the_ledger():
    sim, _, _, hdfs = hdfs_fixture()
    ledger = DurabilityLedger(sim, hdfs)
    source, target = (hdfs.datanodes[f"edison-slave-{i}"] for i in (0, 1))
    ledger.on_repair(source.name, target.name, seconds=2.0, nbytes=1 << 20)
    ledger.charge("split_brain", 1.0, 4.0)
    re_replication = 2.0 * (source.marginal_io_watts()
                            + target.marginal_io_watts())
    assert ledger.repair_bytes == 1 << 20
    assert ledger.joules["re_replication"] == pytest.approx(re_replication)
    assert ledger.joules["split_brain"] == pytest.approx(4.0)
    assert sum(ledger.joules.values()) == pytest.approx(re_replication + 4.0)


# -- attach_job ---------------------------------------------------------------

def test_attach_job_off_is_a_no_op():
    from repro.mapreduce import JOB_FACTORIES, JobRunner
    spec, config = JOB_FACTORIES["wordcount2"]("dell", 4)
    runner = JobRunner("dell", 4, config=config, seed=1, racks=2)
    assert attach_job(runner, None) is None
    assert runner.durability_ledger is None
    assert runner._phi is None
    assert runner.hdfs.monitor is None
    assert not runner.hdfs.rack_aware


def test_attach_job_arms_the_whole_plane():
    from repro.mapreduce import JOB_FACTORIES, JobRunner
    spec, config = JOB_FACTORIES["wordcount2"]("dell", 4)
    runner = JobRunner("dell", 4, config=config, seed=1, racks=2)
    FaultInjector(runner.cluster)
    ledger = attach_job(runner, DurabilityConfig(rack_aware=True))
    assert ledger is runner.durability_ledger
    assert runner._phi is not None
    assert runner.hdfs.monitor is not None
    assert runner.hdfs.monitor.detector is runner._phi
    assert runner.hdfs.rack_aware
    report = runner.run(spec)
    assert report.seconds > 0
    assert ledger.samples                 # the census actually sampled
    assert ledger.conservation_violations == 0


def test_attach_job_after_staging_is_rejected():
    from repro.mapreduce import JOB_FACTORIES, JobRunner
    spec, config = JOB_FACTORIES["wordcount2"]("dell", 4)
    runner = JobRunner("dell", 4, config=config, seed=1, racks=2)
    runner.hdfs.stage_file("too-late", 1 << 20)
    with pytest.raises(RuntimeError):
        attach_job(runner, DurabilityConfig(rack_aware=True))


# -- the plan and the report --------------------------------------------------

def day_plan(**overrides):
    faults = FaultPlan(faults=(
        switch_down("{platform}-rack-0", at=8.0, duration=12.0),
        disk_failure("{platform}-slave-2", at=36.0)))
    defaults = dict(name="test-day", faults=faults)
    defaults.update(overrides)
    return DurabilityPlan(**defaults)


def test_plan_validation():
    with pytest.raises(ValueError):
        day_plan(faults=FaultPlan())
    with pytest.raises(ValueError):
        day_plan(slaves=1)
    with pytest.raises(ValueError):
        day_plan(racks=1)
    with pytest.raises(ValueError):
        day_plan(replications=())
    with pytest.raises(ValueError):
        day_plan(replications=(0,))
    with pytest.raises(ValueError):
        day_plan(slaves=4, replications=(5,))


def test_plan_roundtrip_and_platform_resolution(tmp_path):
    plan = day_plan()
    path = tmp_path / "day.json"
    plan.save(str(path))
    assert DurabilityPlan.load(str(path)) == plan
    resolved = plan.faults_for("edison")
    assert resolved.faults[0].rack == "edison-rack-0"
    assert resolved.faults[1].node == "edison-slave-2"
    # The committed template itself is untouched.
    assert plan.faults.faults[0].rack == "{platform}-rack-0"


def synthetic_arm(**overrides):
    defaults = dict(platform="edison", rack_aware=True, replication=2,
                    blocks_created=16, day_seconds=100.0, joules=1000.0)
    defaults.update(overrides)
    return DurabilityArm(**defaults)


def test_report_knee_and_downtime_check():
    arms = (synthetic_arm(replication=1, blocks_lost=2, loss_events=1,
                          job_failed=True),
            synthetic_arm(replication=2),
            synthetic_arm(replication=3, joules=1100.0))
    controls = (synthetic_arm(replication=3, control=True,
                              joules=900.0),)
    report = DurabilityReport("day", "detail", arms, controls)
    assert report.knee == {"edison": 2}
    assert report.partition_downtime_clean()
    assert not report.arm("edison", True, 1).durable
    assert report.arm("edison", True, 2).durable
    with pytest.raises(KeyError):
        report.arm("edison", False, 2)
    with pytest.raises(KeyError):
        find(report.controls, platform="dell")
    # A fault arm that books downtime the control never saw is a leak.
    leaky = (arms[0], arms[1],
             synthetic_arm(replication=3, downtime_s=5.0))
    assert not DurabilityReport("day", "d", leaky,
                                controls).partition_downtime_clean()


def test_report_roundtrip_and_lines():
    arms = (synthetic_arm(replication=1, blocks_lost=2, job_failed=True),
            synthetic_arm(replication=2, repairs_completed=4,
                          re_replication_j=12.5))
    report = DurabilityReport("day-v1", "2 racks", arms,
                              (synthetic_arm(replication=2,
                                             control=True),))
    data = report.to_dict()
    assert data["knee"] == {"edison": 2}
    assert data["partition_downtime_clean"] is True
    again = DurabilityReport.from_dict(data)
    assert again.arm("edison", True, 2).repairs_completed == 4
    assert find(again.controls, platform="edison").control
    text = "\n".join(report.lines())
    assert "verdict [edison]: r=2 rack-aware is the knee" in text
    assert "failed" in text            # the r=1 arm's job column
    # The smoke prints these lines among its ok/FAIL check lines; a
    # failed job must not read as a failed check.
    assert "FAIL" not in text
    assert "zero downtime (clean)" in text


def test_arm_durable_and_label():
    arm = synthetic_arm()
    assert arm.durable and arm.label == "edison/rack-aware/r2"
    assert not synthetic_arm(job_failed=True).durable
    assert not synthetic_arm(blocks_lost=1).durable
    assert synthetic_arm(rack_aware=False, control=True).label == \
        "edison/oblivious/r2/control"
    assert synthetic_arm().same_rack_read_fraction is None
    assert synthetic_arm(same_rack_read_bytes=3.0,
                         cross_rack_read_bytes=1.0
                         ).same_rack_read_fraction == pytest.approx(0.75)


def test_one_arm_end_to_end_on_dell():
    from repro.durability.report import _run_arm
    plan = day_plan(faults=FaultPlan(faults=(
        switch_down("{platform}-rack-0", at=8.0, duration=12.0),)),
        settle_s=15.0)
    arm = _run_arm(plan, "dell", True, 2, plan.faults_for("dell"))
    assert arm.durable
    assert arm.blocks_lost == 0
    assert arm.conservation_violations == 0
    assert arm.repairs_completed > 0
    assert arm.re_replication_j > 0.0
    assert arm.duplicate_kills == arm.zombies_started
    assert arm.downtime_s == 0.0
    assert arm.unreachable_s == pytest.approx(4 * 12.0)
