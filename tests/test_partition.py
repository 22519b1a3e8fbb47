"""Tests for partition tolerance: the reachability overlay, partition
fault kinds, phi-accrual detection and split-brain reconciliation."""

import random

import pytest

from repro.cluster.builders import hadoop_cluster
from repro.faults import (FaultInjector, FaultPlan, PhiAccrualDetector,
                          node_crash, node_set_partition, rack_partition,
                          switch_down)
from repro.faults import phi
from repro.sim import Simulation


def two_rack_cluster(sim, platform="edison", slaves=4):
    return hadoop_cluster(sim, platform, slaves, racks=2)


# -- the reachability overlay -------------------------------------------------

def test_sever_and_heal_flip_reachability():
    sim = Simulation()
    cluster = two_rack_cluster(sim)
    topo = cluster.topology
    assert topo.reachable("edison-slave-0", "edison-slave-2")
    cut = topo.sever(["edison-slave-0", "edison-slave-1"])
    assert not topo.reachable("edison-slave-0", "edison-slave-2")
    assert not topo.reachable("edison-slave-2", "edison-slave-0")
    # Same side of the cut: still connected in both directions.
    assert topo.reachable("edison-slave-0", "edison-slave-1")
    assert topo.reachable("edison-slave-2", "edison-slave-3")
    topo.heal(cut)
    assert topo.reachable("edison-slave-0", "edison-slave-2")


def test_isolate_cuts_intra_set_traffic_too():
    sim = Simulation()
    topo = two_rack_cluster(sim).topology
    cut = topo.sever(["edison-slave-0", "edison-slave-1"], isolate=True)
    # A dead ToR switch: the rack's members cannot even see each other.
    assert not topo.reachable("edison-slave-0", "edison-slave-1")
    assert topo.reachable("edison-slave-2", "edison-slave-3")
    # Loopback never needs the fabric.
    assert topo.reachable("edison-slave-0", "edison-slave-0")
    topo.heal(cut)
    assert topo.reachable("edison-slave-0", "edison-slave-1")


def test_sever_validates_nodes_and_heal_validates_ids():
    sim = Simulation()
    topo = two_rack_cluster(sim).topology
    with pytest.raises(ValueError):
        topo.sever([])
    with pytest.raises(ValueError):
        topo.sever(["edison-slave-0", "nope"])
    with pytest.raises(ValueError):
        topo.heal(12345)


def test_overlapping_cuts_must_all_heal():
    sim = Simulation()
    topo = two_rack_cluster(sim).topology
    first = topo.sever(["edison-slave-0"])
    second = topo.sever(["edison-slave-0", "edison-slave-1"])
    topo.heal(first)
    assert not topo.reachable("edison-slave-0", "edison-slave-2")
    topo.heal(second)
    assert topo.reachable("edison-slave-0", "edison-slave-2")


def test_message_stalls_across_cut_until_heal():
    sim = Simulation()
    topo = two_rack_cluster(sim).topology
    cut = topo.sever(["edison-slave-0"])
    done = []

    def talker():
        yield from topo.message("edison-slave-2", "edison-slave-0", 1000)
        done.append(sim.now)

    def healer():
        yield sim.timeout(5.0)
        topo.heal(cut)

    sim.process(talker())
    sim.process(healer())
    sim.run()
    assert done and done[0] >= 5.0


def test_transfer_stalls_across_cut_until_heal():
    sim = Simulation()
    topo = two_rack_cluster(sim).topology
    cut = topo.sever(["edison-slave-1"])
    done = []

    def mover():
        yield from topo.transfer("edison-slave-1", "edison-slave-3", 1e6)
        done.append(sim.now)

    def healer():
        yield sim.timeout(2.5)
        topo.heal(cut)

    sim.process(mover())
    sim.process(healer())
    sim.run()
    assert done and done[0] >= 2.5


def test_no_cut_paths_stay_hot_and_cheap():
    """The overlay must be invisible when no partition is active."""
    sim = Simulation()
    topo = two_rack_cluster(sim).topology
    assert topo._cuts == {}
    assert topo.reachable("edison-slave-0", "edison-slave-2")


# -- partition faults through the injector ------------------------------------

def test_partitioned_node_is_up_but_unreachable():
    sim = Simulation()
    cluster = two_rack_cluster(sim)
    plan = FaultPlan(faults=(
        rack_partition("edison-rack-0", at=2.0, duration=6.0),))
    injector = FaultInjector(cluster, plan)
    sim.run()
    for node in ("edison-slave-0", "edison-slave-1"):
        assert injector.is_up(node)
        assert injector.is_reachable(node)
        assert injector.downtime(node) == 0.0
        assert injector.unreachable_time(node) == pytest.approx(6.0)
    assert injector.unreachable_time("edison-slave-2") == 0.0


def test_partition_record_covers_every_member():
    sim = Simulation()
    cluster = two_rack_cluster(sim)
    plan = FaultPlan(faults=(
        node_set_partition(("edison-slave-1", "edison-slave-3"),
                           at=1.0, duration=2.0),))
    injector = FaultInjector(cluster, plan)
    sim.run()
    (record,) = injector.records
    assert record.kind == "partition"
    assert set(record.nodes) == {"edison-slave-1", "edison-slave-3"}
    assert record.covers("edison-slave-1")
    # The cut label itself.
    assert record.covers("edison-slave-1,edison-slave-3")
    assert not record.covers("edison-slave-0")
    assert record.duration == pytest.approx(2.0)


def test_partition_listeners_fire_per_member_with_kind():
    sim = Simulation()
    cluster = two_rack_cluster(sim)
    plan = FaultPlan(faults=(
        switch_down("edison-rack-1", at=1.0, duration=3.0),))
    injector = FaultInjector(cluster, plan)
    events = []
    injector.add_listener(lambda ev, node, kind: events.append(
        (ev, node, kind)))
    sim.run()
    members = {"edison-slave-2", "edison-slave-3"}
    downs = {(n, k) for ev, n, k in events if ev == "down"}
    ups = {(n, k) for ev, n, k in events if ev == "up"}
    assert downs == {(n, "switch_down") for n in members}
    assert ups == {(n, "switch_down") for n in members}


def test_switch_down_isolates_rack_members_from_each_other():
    sim = Simulation()
    cluster = two_rack_cluster(sim)
    plan = FaultPlan(faults=(
        switch_down("edison-rack-0", at=1.0, duration=4.0),))
    FaultInjector(cluster, plan)
    seen = []

    def probe():
        yield sim.timeout(2.0)
        seen.append(cluster.topology.reachable("edison-slave-0",
                                               "edison-slave-1"))

    sim.process(probe())
    sim.run()
    assert seen == [False]


def test_plain_partition_keeps_intra_set_traffic():
    sim = Simulation()
    cluster = two_rack_cluster(sim)
    plan = FaultPlan(faults=(
        rack_partition("edison-rack-0", at=1.0, duration=4.0),))
    FaultInjector(cluster, plan)
    seen = []

    def probe():
        yield sim.timeout(2.0)
        seen.append(cluster.topology.reachable("edison-slave-0",
                                               "edison-slave-1"))

    sim.process(probe())
    sim.run()
    assert seen == [True]


def test_partition_of_unknown_rack_rejected_up_front():
    sim = Simulation()
    cluster = two_rack_cluster(sim)
    plan = FaultPlan(faults=(
        rack_partition("edison-rack-9", at=1.0, duration=1.0),))
    with pytest.raises(ValueError):
        FaultInjector(cluster, plan)


def test_detected_down_covers_partitions():
    sim = Simulation()
    cluster = two_rack_cluster(sim)
    plan = FaultPlan(faults=(
        rack_partition("edison-rack-0", at=1.0, duration=5.0),))
    injector = FaultInjector(cluster, plan, detection_s=0.5)
    seen = {}

    def probe():
        yield sim.timeout(1.2)       # inside the detection window
        seen["early"] = injector.detected_down("edison-slave-0")
        yield sim.timeout(1.0)       # past it
        seen["late"] = injector.detected_down("edison-slave-0")
        yield sim.timeout(5.0)       # healed
        seen["healed"] = injector.detected_down("edison-slave-0")

    sim.process(probe())
    sim.run()
    assert seen == {"early": False, "late": True, "healed": False}


# -- phi-accrual detection ----------------------------------------------------

def test_phi_parameter_validation():
    # The detector's tuning is constant; these are the bounds its
    # arithmetic needs (a positive conviction level, a fit over at
    # least two arrivals, a non-zero spread and prior).
    assert phi.THRESHOLD > 0
    assert phi.WINDOW >= 2
    assert phi.MIN_STD_S > 0 and phi.EXPECTED_S > 0


def _beats(sim, detector, arrivals):
    """Feed ``(time, node)`` heartbeats in time order."""
    for at, node in sorted(arrivals):
        sim.run(until=at)
        detector.beat(node)


def test_phi_rises_with_silence():
    sim = Simulation()
    detector = PhiAccrualDetector(sim)
    _beats(sim, detector, [(float(t), "n") for t in range(20)])
    assert detector.phi("n", now=19.2) < 1.0
    assert detector.phi("n", now=30.0) >= phi.THRESHOLD
    # A node never heard from carries no suspicion at all.
    assert detector.phi("ghost") == 0.0


def test_phi_adapts_to_jitter():
    """A jittery node earns more grace than a metronomic one."""
    sim = Simulation()
    detector = PhiAccrualDetector(sim)
    arrivals = [(float(i), "steady") for i in range(1, 41)]
    t = 0.0
    rng = random.Random(7)
    for i in range(40):
        t += rng.uniform(0.5, 1.5)
        arrivals.append((t, "jittery"))
    _beats(sim, detector, arrivals)
    steady_last = detector._last["steady"]
    jittery_last = detector._last["jittery"]
    silence = 2.5
    assert detector.phi("steady", now=steady_last + silence) > \
        detector.phi("jittery", now=jittery_last + silence)


def test_wait_suspect_convicts_on_silence():
    sim = Simulation()
    detector = PhiAccrualDetector(sim)
    outcome = []

    def feeder():
        for _ in range(10):
            yield sim.timeout(1.0)
            detector.beat("n")
        # ... then silence forever.

    def decider():
        yield sim.timeout(10.5)
        verdict = yield from detector.wait_suspect("n")
        outcome.append((verdict, sim.now))

    sim.process(feeder())
    sim.process(decider())
    sim.run()
    (verdict, at) = outcome[0]
    assert verdict is True
    assert at > 11.0      # conviction needed real silence, not a tick


def test_wait_suspect_releases_when_healthy_returns():
    sim = Simulation()
    detector = PhiAccrualDetector(sim)
    healthy = {"flag": False}
    outcome = []

    def feeder():
        for _ in range(10):
            yield sim.timeout(1.0)
            detector.beat("n")
        yield sim.timeout(0.8)
        healthy["flag"] = True       # the partition healed in time
        detector.beat("n")

    def decider():
        yield sim.timeout(10.2)
        verdict = yield from detector.wait_suspect(
            "n", healthy=lambda: healthy["flag"])
        outcome.append(verdict)

    sim.process(feeder())
    sim.process(decider())
    sim.run()
    assert outcome == [False]


def test_heartbeat_feeder_goes_silent_while_severed():
    from repro.durability.plane import _heartbeat_feeder
    from repro.sim import RngStreams
    sim = Simulation()
    cluster = two_rack_cluster(sim)
    plan = FaultPlan(faults=(
        rack_partition("edison-rack-0", at=5.0, duration=6.0),))
    FaultInjector(cluster, plan)
    detector = PhiAccrualDetector(sim)
    rng = RngStreams(1).stream("phi")
    sim.process(_heartbeat_feeder(sim, detector, "edison-slave-0", rng))
    phis = {}

    def probe():
        yield sim.timeout(10.0)
        phis["mid"] = detector.phi("edison-slave-0")
        yield sim.timeout(5.0)
        phis["after"] = detector.phi("edison-slave-0")

    sim.process(probe())
    sim.run(until=16.0)
    # Five seconds of dropped beats look exactly like death...
    assert phis["mid"] >= phi.THRESHOLD
    # ...and the healed node's resumed beats clear the suspicion.
    assert phis["after"] < phi.THRESHOLD


# -- split-brain reconciliation ----------------------------------------------

def run_partitioned_job(platform="dell", at=20.0, duration=6.0):
    import dataclasses

    from repro.mapreduce import JOB_FACTORIES, JobRunner
    spec, config = JOB_FACTORIES["wordcount2"](platform, 8)
    config = dataclasses.replace(config, replication=2)
    runner = JobRunner(platform, 8, config=config, seed=20260809, racks=2)
    plan = FaultPlan(faults=(
        rack_partition(f"{platform}-rack-0", at=at, duration=duration),))
    injector = FaultInjector(runner.cluster, plan)
    report = runner.run(spec)
    return runner, injector, report


def test_split_brain_spawns_and_reconciles_zombies():
    runner, injector, report = run_partitioned_job()
    counters = runner.partition_counters
    assert counters["zombies_started"] > 0
    # Every duplicate attempt was killed at heal; none leaked.
    assert counters["duplicate_kills"] == counters["zombies_started"]
    assert counters["reregistered"] == 4       # the whole severed rack
    assert not runner._zombies                 # reconciliation drained
    assert report.seconds > 0


def test_partition_accrues_no_downtime_vs_control():
    import dataclasses

    from repro.mapreduce import JOB_FACTORIES, JobRunner
    runner, injector, report = run_partitioned_job()
    slaves = [s.name for s in runner.slave_servers]
    assert sum(injector.downtime(n) for n in slaves) == 0.0
    assert sum(injector.unreachable_time(n) for n in slaves) == \
        pytest.approx(4 * 6.0)
    # The control replay (no faults at all) books the same downtime.
    spec, config = JOB_FACTORIES["wordcount2"]("dell", 8)
    config = dataclasses.replace(config, replication=2)
    control = JobRunner("dell", 8, config=config, seed=20260809, racks=2)
    control_injector = FaultInjector(control.cluster, FaultPlan())
    control.run(spec)
    assert sum(control_injector.downtime(n) for n in slaves) == 0.0


def test_expired_node_reregisters_with_yarn_after_heal():
    runner, injector, _ = run_partitioned_job()
    # After the run every slave is back in the scheduler's rotation.
    for name in (s.name for s in runner.slave_servers):
        assert name in runner.yarn.nodes
        assert not runner.yarn.nodes[name].down


def test_heal_before_expiry_never_convicts():
    """A blip shorter than the liveness window is invisible to YARN."""
    runner, injector, report = run_partitioned_job(duration=1.0)
    counters = runner.partition_counters
    assert counters["zombies_started"] == 0
    assert counters["reregistered"] == 0
    assert not runner._partition_expired


# -- property: overlapping faults never corrupt the books ---------------------

def test_overlapping_fault_soup_keeps_accounting_sane():
    """Seeded random plans of crashes, partitions and
    admin park/resume cycles: downtime and unreachable time are never
    negative, fault records are written exactly once per fault and all
    closed, and no node ends the day stuck down or severed."""
    rng = random.Random(20260809)
    for trial in range(8):
        sim = Simulation()
        cluster = two_rack_cluster(sim)
        slaves = [n for n in cluster.servers if "slave" in n]
        faults = []
        for _ in range(rng.randrange(2, 6)):
            node = rng.choice(slaves)
            at = rng.uniform(0.0, 10.0)
            duration = rng.uniform(0.5, 8.0)
            roll = rng.random()
            if roll < 0.5:
                faults.append(node_crash(node, at=at, repair_s=duration))
            elif roll < 0.75:
                faults.append(rack_partition(
                    f"edison-rack-{rng.randrange(2)}", at=at,
                    duration=duration))
            else:
                faults.append(node_set_partition(
                    tuple(rng.sample(slaves, 2)), at=at,
                    duration=duration))
        plan = FaultPlan(faults=tuple(faults))
        injector = FaultInjector(cluster, plan)
        victim = rng.choice(slaves)
        park_at = rng.uniform(0.0, 12.0)

        def admin_cycle(node=victim, at=park_at):
            yield sim.timeout(at)
            injector.admin_power_off(node)
            yield sim.timeout(1.0)
            injector.admin_begin_boot(node)
            yield sim.timeout(0.5)
            injector.admin_power_on(node)

        sim.process(admin_cycle())
        sim.run()
        horizon = sim.now
        assert len(injector.records) == len(faults)
        for record in injector.records:
            assert record.end is not None
            assert record.duration >= 0
        for node in slaves:
            assert injector.downtime(node, until=horizon) >= 0.0
            assert injector.unreachable_time(node, until=horizon) >= 0.0
            status = injector.status[node]
            assert status.up, f"{node} stuck down (trial {trial})"
            assert status.down_tokens == 0
            assert status.unreachable_tokens == 0
            assert status.down_since is None
            assert status.unreachable_since is None
            assert not status.admin_off and not status.admin_booting
            assert injector.admin_state(node) == "on"
        assert cluster.topology._cuts == {}, f"unhealed cut (trial {trial})"


# -- the web rotation under a partition ---------------------------------------

def test_rotation_converges_to_ground_truth_through_a_partition():
    """The LB marks live-but-unreachable backends dead for exactly the
    severed window: out after the detection delay, back at heal."""
    from repro.web.rotation import WeightedRotation

    class StubWeb:
        def __init__(self, server):
            self.server = server

    sim = Simulation()
    cluster = hadoop_cluster(sim, "edison", 4, racks=2)
    FaultInjector(cluster, FaultPlan(faults=(
        rack_partition("edison-rack-0", at=5.0, duration=10.0),)),
        detection_s=0.25)
    rotation = WeightedRotation(sim)
    names = [f"edison-slave-{i}" for i in range(4)]
    for name in names:
        rotation.add(StubWeb(cluster.servers[name]), weight=1.0)

    active = {}

    def sample(at):
        yield sim.timeout(at)
        picked = {rotation.pick().server.name for _ in range(8)}
        active[at] = picked

    for at in (4.0, 7.0, 16.0):
        sim.process(sample(at))
    sim.run()
    assert active[4.0] == set(names)               # before the cut
    assert active[7.0] == {"edison-slave-2", "edison-slave-3"}
    assert active[16.0] == set(names)              # ground truth restored
