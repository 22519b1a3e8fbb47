"""Unit tests for the network substrate (flows and topology)."""

import random

import pytest

from repro.cluster import Cluster
from repro.cluster.builders import hadoop_cluster
from repro.hardware import DELL_R620, EDISON
from repro.net import FlowNetwork, Segment
from repro.sim import Simulation


def make_pair(sim, spec_a=EDISON, spec_b=EDISON):
    cluster = Cluster(sim)
    a = cluster.add(spec_a, "a")
    b = cluster.add(spec_b, "b")
    return cluster.topology, a, b


# -- FlowNetwork --------------------------------------------------------------

def test_single_flow_runs_at_line_rate():
    sim = Simulation()
    net = FlowNetwork(sim)
    seg = Segment("link", capacity_Bps=100.0)
    done = net.start_flow([seg], nbytes=1000)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)


def test_zero_byte_flow_completes_instantly():
    sim = Simulation()
    net = FlowNetwork(sim)
    done = net.start_flow([Segment("s", 1.0)], nbytes=0)
    assert done.triggered


def test_flow_rejects_negative_bytes_and_empty_path():
    sim = Simulation()
    net = FlowNetwork(sim)
    with pytest.raises(ValueError):
        net.start_flow([Segment("s", 1.0)], nbytes=-1)
    with pytest.raises(ValueError):
        net.start_flow([], nbytes=10)


def test_two_flows_share_fairly():
    sim = Simulation()
    net = FlowNetwork(sim)
    seg = Segment("link", capacity_Bps=100.0)
    first = net.start_flow([seg], nbytes=1000)
    second = net.start_flow([seg], nbytes=1000)
    sim.run(until=second)
    # Both at 50 B/s -> both finish at t=20.
    assert sim.now == pytest.approx(20.0)
    assert first.triggered


def test_late_flow_speeds_up_after_departure():
    sim = Simulation()
    net = FlowNetwork(sim)
    seg = Segment("link", capacity_Bps=100.0)

    def scenario():
        first = net.start_flow([seg], nbytes=500)
        second = net.start_flow([seg], nbytes=1000)
        yield first
        # first: 500 B at 50 B/s -> t=10; second has 500 left, now at 100 B/s.
        assert sim.now == pytest.approx(10.0)
        yield second
        assert sim.now == pytest.approx(15.0)

    sim.run(until=sim.process(scenario()))


def test_maxmin_respects_tighter_segment():
    sim = Simulation()
    net = FlowNetwork(sim)
    wide = Segment("wide", capacity_Bps=100.0)
    narrow = Segment("narrow", capacity_Bps=10.0)
    slow = net.start_flow([wide, narrow], nbytes=100)   # capped at 10
    fast = net.start_flow([wide], nbytes=900)           # gets the rest (90)
    sim.run(until=slow)
    assert sim.now == pytest.approx(10.0, rel=1e-3)
    sim.run(until=fast)
    assert sim.now == pytest.approx(10.0, rel=1e-3)


def test_flow_accounts_nic_bytes():
    sim = Simulation()
    topo, a, b = make_pair(sim)
    done = topo.network.start_flow(topo.path("a", "b"), nbytes=1e6)
    sim.run(until=done)
    assert a.nic.bytes_sent == pytest.approx(1e6)
    assert b.nic.bytes_received == pytest.approx(1e6)


def test_flow_rejects_non_finite_bytes_and_stays_usable():
    sim = Simulation()
    net = FlowNetwork(sim)
    seg = Segment("link", capacity_Bps=100.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            net.start_flow([seg], nbytes=bad)
    assert net.flows == []
    done = net.start_flow([seg], nbytes=1000)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)


def test_segment_rejects_non_finite_capacity():
    for bad in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError):
            Segment("s", capacity_Bps=bad)


def test_flow_rejects_a_repeated_segment():
    sim = Simulation()
    net = FlowNetwork(sim)
    seg = Segment("link", capacity_Bps=100.0)
    with pytest.raises(ValueError, match="twice"):
        net.start_flow([seg, seg], nbytes=10)
    assert net.flows == []


def test_segments_and_flows_compare_by_identity():
    a, b = Segment("s", 1.0), Segment("s", 1.0)
    assert a != b and a == a and len({a, b}) == 2


def reference_filling(flows):
    """Progressive filling as first written: every round rescans every
    segment's flow list for the unfrozen ones.  Returns the per-flow
    rates and the NIC rates, accumulated in flow order."""
    unfrozen = set(flows)
    rates = {flow: 0.0 for flow in flows}
    seg_flows = {}
    for flow in flows:
        for segment in flow.segments:
            seg_flows.setdefault(segment, []).append(flow)
    seg_capacity = {seg: seg.capacity_Bps for seg in seg_flows}
    while unfrozen:
        bottleneck, fair = None, float("inf")
        for segment, members in seg_flows.items():
            active = [f for f in members if f in unfrozen]
            if not active:
                continue
            share = seg_capacity[segment] / len(active)
            if share < fair:
                bottleneck, fair = segment, share
        if bottleneck is None:
            break
        for flow in [f for f in seg_flows[bottleneck] if f in unfrozen]:
            rates[flow] += fair
            unfrozen.discard(flow)
            for segment in flow.segments:
                seg_capacity[segment] -= fair
    nic_rates = {}
    for flow in flows:
        for segment in flow.segments:
            if segment.nic is not None:
                nic_rates[segment.nic] = (nic_rates.get(segment.nic, 0.0)
                                          + rates[flow])
    return rates, nic_rates


def assert_filling_matches_reference(net):
    rates, nic_rates = reference_filling(net.flows)
    for flow in net.flows:
        assert flow.rate_Bps == rates[flow]
    for nic, rate in nic_rates.items():
        assert nic.active_rate_Bps == rate


@pytest.mark.parametrize("seed", range(12))
def test_filling_is_bit_equal_to_the_rescanning_reference(seed):
    rng = random.Random(seed)
    sim = Simulation()
    cluster = hadoop_cluster(sim, "edison", 8, racks=2)
    topo = cluster.topology
    names = [f"edison-slave-{i}" for i in range(8)]
    if seed % 2:
        # Uneven capacities: bottlenecks move between NICs and ToRs.
        segments = {id(seg): seg for a in names for b in names if a != b
                    for seg in topo.path(a, b)}
        for seg in segments.values():
            seg.capacity_Bps = rng.choice((1e5, 2.5e5, 7e5)) * (
                1 + rng.random())
    throttle = Segment("throttle", rng.choice((5e4, 1e5, 3e6)))
    for _ in range(rng.randint(4, 30)):
        src, dst = rng.sample(names, 2)
        path = topo.path(src, dst)
        if rng.random() < 0.3:
            path = path + [throttle]
        topo.network.start_flow(path, rng.choice((1e5, 1e6, 3e6))
                                * rng.random() + 1.0)
    assert len(topo.network.flows) >= 4
    assert_filling_matches_reference(topo.network)
    # Completions re-run the filling on the survivors.
    for horizon in (0.5, 2.0, 8.0):
        sim.run(until=horizon)
        assert_filling_matches_reference(topo.network)


# -- Topology -----------------------------------------------------------------

def test_edison_transfer_time_matches_nic():
    sim = Simulation()
    topo, a, b = make_pair(sim)

    def scenario():
        yield from topo.transfer("a", "b", 12.5e6)  # 1 s at 100 Mb/s

    sim.run(until=sim.process(scenario()))
    assert sim.now == pytest.approx(1.0 + 1.3e-3 / 2, rel=1e-3)


def test_dell_to_dell_uses_gigabit():
    sim = Simulation()
    topo, a, b = make_pair(sim, DELL_R620, DELL_R620)

    def scenario():
        yield from topo.transfer("a", "b", 125e6)  # 1 s at 1 Gb/s

    sim.run(until=sim.process(scenario()))
    assert sim.now == pytest.approx(1.0 + 0.24e-3 / 2, rel=1e-3)


def test_rtt_matrix_matches_section_4_4():
    sim = Simulation()
    cluster = Cluster(sim)
    cluster.add(EDISON, "e0")
    cluster.add(EDISON, "e1")
    cluster.add(DELL_R620, "d0")
    cluster.add(DELL_R620, "d1")
    topo = cluster.topology
    assert topo.rtt("e0", "e1") == pytest.approx(1.3e-3)
    assert topo.rtt("d0", "d1") == pytest.approx(0.24e-3)
    assert topo.rtt("d0", "e0") == pytest.approx(0.8e-3)
    assert topo.rtt("e0", "e0") == 0.0


def test_cross_room_flows_share_the_trunk():
    """Many Edison->Dell flows collectively cap at the 1 Gb/s uplink."""
    sim = Simulation()
    cluster = Cluster(sim)
    edisons = [cluster.add(EDISON, f"e{i}") for i in range(20)]
    dell = cluster.add(DELL_R620, "d0")
    topo = cluster.topology
    done = [topo.network.start_flow(topo.path(e.name, "d0"), 12.5e6)
            for e in edisons]

    def scenario():
        yield sim.all_of(done)

    sim.run(until=sim.process(scenario()))
    # 20 x 12.5 MB = 250 MB; bottleneck = dell rx at 125 MB/s -> 2 s.
    assert sim.now == pytest.approx(2.0, rel=1e-3)


def test_same_room_dell_flows_bypass_trunk():
    sim = Simulation()
    cluster = Cluster(sim)
    cluster.add(DELL_R620, "d0")
    cluster.add(DELL_R620, "d1")
    path = cluster.topology.path("d0", "d1")
    names = [seg.name for seg in path]
    assert names == ["d0.tx", "d1.rx"]


def test_duplicate_server_name_rejected():
    sim = Simulation()
    cluster = Cluster(sim)
    cluster.add(EDISON, "x")
    with pytest.raises(ValueError):
        cluster.add(EDISON, "x")
