"""Float-for-float oracles for three bookkeeping paths.

Each oracle below is the code these paths ran before they were made
incremental, copied with only its plumbing adapted: progressive filling
that rebuilds its dicts every reallocation, a power meter that reads
each node's window as a dict and blends it key by key, and a block
census that walks the whole map every time.  The shipped code must agree with
them exactly (``==``, never ``approx``) on seeded soups of the events
that drive each path.
"""

import dataclasses
import random

import pytest

from repro.cluster.builders import hadoop_cluster
from repro.durability.plane import _heartbeat_feeder
from repro.energy import PowerMeter
from repro.faults import FaultInjector, FaultPlan, PhiAccrualDetector
from repro.faults.models import (disk_failure, node_crash,
                                 node_set_partition, rack_partition,
                                 switch_down)
from repro.hardware import DELL_R620, EDISON
from repro.hardware.nic import Nic, NicSpec
from repro.hardware.power import PowerSpec
from repro.hardware.server import Server
from repro.mapreduce.hdfs import Hdfs
from repro.net import FlowNetwork, Segment
from repro.net.flows import COMPLETION_THRESHOLD_BYTES
from repro.sim import RngStreams, Simulation


# -- fair shares --------------------------------------------------------------

class OracleFlowNetwork(FlowNetwork):
    """The filling as it was: a set, a rates dict, a segment-to-flows
    dict, a capacity dict and a count dict per reallocation, and a
    closure per wake-up that checks a version."""

    def __init__(self, sim):
        super().__init__(sim)
        self._version = 0

    def _reallocate(self):
        for flow in self.flows:
            for segment in flow.segments:
                if segment.nic is not None:
                    segment.nic.active_rate_Bps = 0.0
        if not self.flows:
            self._version += 1
            return
        unfrozen = set(self.flows)
        rates = {flow: 0.0 for flow in self.flows}
        seg_flows = {}
        for flow in self.flows:
            for segment in flow.segments:
                seg_flows.setdefault(segment, []).append(flow)
        seg_capacity = {seg: seg.capacity_Bps for seg in seg_flows}
        active = {seg: len(flows) for seg, flows in seg_flows.items()}
        while unfrozen:
            bottleneck, fair = None, float("inf")
            for segment, count in active.items():
                if count:
                    share = seg_capacity[segment] / count
                    if share < fair:
                        bottleneck, fair = segment, share
            if bottleneck is None:
                break
            for flow in [f for f in seg_flows[bottleneck] if f in unfrozen]:
                rates[flow] += fair
                unfrozen.discard(flow)
                for segment in flow.segments:
                    seg_capacity[segment] -= fair
                    active[segment] -= 1
        for flow, rate in rates.items():
            flow.rate_Bps = rate
            for segment in flow.segments:
                if segment.nic is not None:
                    segment.nic.active_rate_Bps += rate
        self._schedule_next_completion()

    def _schedule_next_completion(self):
        self._version += 1
        version = self._version
        if self._wake is not None:
            self._wake.cancel()
            self._wake = None
        horizon = min(
            ((f.remaining_bytes - COMPLETION_THRESHOLD_BYTES / 2)
             / f.rate_Bps
             for f in self.flows if f.rate_Bps > 0),
            default=None)
        if horizon is None:
            return
        wake = self.sim.timeout(max(horizon, 0.0))
        wake.add_callback(lambda _ev: self._on_version(version))
        self._wake = wake

    def _on_version(self, version):
        if version != self._version:
            return
        self._advance_clock()
        self._reallocate()


#: Few distinct capacities, so equal-share ties are common.
CAPACITIES = (100.0, 200.0, 300.0, 250.0)


def flow_soup(network_class, seed):
    """Run one seeded soup of flow starts, capacity changes with
    ``rescale()`` and drains; return a snapshot after every step."""
    rng = random.Random(seed)
    sim = Simulation()
    net = network_class(sim)
    nodes = []
    for i in range(6):
        nic = Nic(sim, NicSpec(bandwidth_bps=8 * 300.0), name=f"n{i}")
        tx = Segment(f"n{i}.tx", rng.choice(CAPACITIES), nic, "tx")
        rx = Segment(f"n{i}.rx", rng.choice(CAPACITIES), nic, "rx")
        nodes.append((nic, tx, rx))
    trunks = [Segment(f"trunk{i}", rng.choice(CAPACITIES)) for i in range(2)]
    segments = [seg for _nic, tx, rx in nodes for seg in (tx, rx)] + trunks
    snapshots = []
    dones = []

    def snapshot(label):
        wake = net._wake
        snapshots.append((
            label, sim.now,
            tuple((f.rate_Bps, f.remaining_bytes) for f in net.flows),
            tuple(nic.active_rate_Bps for nic, _tx, _rx in nodes),
            None if wake is None else (wake.delay, wake._cancelled)))

    def driver():
        for step in range(rng.randint(30, 80)):
            yield rng.choice((0.0, 0.0, 0.5, 1.0, 3.0, 10.0))
            roll = rng.random()
            if roll < 0.7 and len(net.flows) < 30:
                # A burst of 1 up to 30 flows in flight.
                burst = 1 if roll < 0.55 else rng.randint(
                    1, 30 - len(net.flows))
                for _ in range(burst):
                    src, dst = rng.sample(range(6), 2)
                    path = [nodes[src][1], nodes[dst][2]]
                    if rng.random() < 0.4:
                        path.append(rng.choice(trunks))
                    dones.append(net.start_flow(
                        path, rng.choice((100.0, 2500.0, 10000.0, 37.5))))
                    snapshot(f"start {step}")
            elif roll < 0.9:
                segment = rng.choice(segments)
                segment.capacity_Bps = rng.choice(CAPACITIES) * rng.choice(
                    (0.5, 1.0, 1.0 / 3.0))
                net.rescale()
                snapshot(f"rescale {step}")
            else:
                # Drain: wait out every flow, then rescale an idle net.
                while net.flows:
                    yield 1.0
                    snapshot(f"drain {step}")
                net.rescale()
                snapshot(f"idle {step}")

    sim.process(driver())
    sim.run()
    snapshot("end")
    return (snapshots, [done.value for done in dones],
            sim.calendar_stats())


@pytest.mark.parametrize("seed", range(16))
def test_filling_equals_the_rebuilding_oracle(seed):
    got = flow_soup(FlowNetwork, seed)
    want = flow_soup(OracleFlowNetwork, seed)
    assert got == want
    snapshots = got[0]
    assert any(not flows for _l, _t, flows, _n, _w in snapshots)
    assert max(len(flows) for _l, _t, flows, _n, _w in snapshots) >= 10


def drained_by_rescale(network_class, restart_at):
    """A rescale just before the only flow's wake-up drains it, leaving
    that wake pending; a new flow starts at ``restart_at``."""
    sim = Simulation()
    net = network_class(sim)
    link = Segment("link", 100.0)
    snapshots = []

    def driver():
        net.start_flow([link], 1000.0)
        yield 9.999993          # the wake is due at 9.999995
        net.rescale()
        snapshots.append((len(net.flows), net._wake._cancelled))
        yield restart_at - sim.now
        net.start_flow([link], 50.0)
        snapshots.append((sim.now, link.capacity_Bps, net._wake.delay))

    sim.process(driver())
    sim.run()
    return snapshots, sim.calendar_stats()


@pytest.mark.parametrize("restart_at", [9.999994, 12.0])
def test_a_wake_left_by_a_drained_network_matches_the_oracle(restart_at):
    # Restarting first cancels the drained network's wake; restarting
    # later lets it fire into a network with nothing to roll forward.
    got = drained_by_rescale(FlowNetwork, restart_at)
    assert got == drained_by_rescale(OracleFlowNetwork, restart_at)
    assert got[0][0] == (0, False)


# -- meter reads --------------------------------------------------------------

def dict_window(server):
    """The probe window as a dict, the way the meter once read it."""
    now = server.sim.now
    dt = now - server._probe_time
    cpu_busy = server.cpu.busy_vcore_seconds()
    disk_busy = server.storage.channel.busy_time()
    nic_bytes = server.nic.total_bytes
    if dt <= 0:
        window = server.utilization_now()
    else:
        nic_rate = (nic_bytes - server._probe_nic_bytes) / dt
        window = {
            "cpu": (cpu_busy - server._probe_cpu_busy)
                   / (server.cpu.vcores.capacity * dt),
            "mem": server.memory.utilization(),
            "disk": (disk_busy - server._probe_disk_busy) / dt,
            "net": min(1.0, nic_rate / server.nic.spec.bytes_per_second),
        }
    server._probe_time = now
    server._probe_cpu_busy = cpu_busy
    server._probe_disk_busy = disk_busy
    server._probe_nic_bytes = nic_bytes
    return window


def dict_power(spec, utilization, pstate):
    """The key-by-key blend with its per-call key check."""
    weights = spec.weights
    for component in utilization:
        if component not in weights:
            raise ValueError(f"unknown power component {component!r}")
    blended = 0.0
    for component, weight in weights.items():
        value = utilization.get(component, 0.0)
        if not value > 0.0:
            value = 0.0
        elif not value < 1.0:
            value = 1.0
        blended += weight * value
    u = blended
    if pstate is not None and pstate.busy_w_factor != 1.0:
        cpu_weight = spec.weights.get("cpu", 0.0)
        if cpu_weight:
            cpu_part = cpu_weight * min(
                1.0, max(0.0, utilization.get("cpu", 0.0)))
            u = u - cpu_part + cpu_part * pstate.busy_w_factor
    return spec.idle_w + (spec.busy_w - spec.idle_w) * u + spec.adapter_w


class OracleMeter(PowerMeter):
    """The sample as it was: a dict per node per reading, through the
    fault plane's status, read back with four ``get``s."""

    def sample(self):
        cpu = mem = disk = net = 0.0
        watts = 0.0
        faults = self.sim.faults
        now = self.sim.now
        for server in self.servers:
            utilization = dict_window(server)
            status = (None if faults is None
                      else faults.status.get(server.name))
            if status is None or status.up:
                node_w = dict_power(server.spec.power, utilization,
                                    server.cpu.pstate)
            elif status.admin_off:
                node_w = 0.0
            else:
                node_w = server.spec.power.min_w
            watts += node_w
            self.per_node[server.name].record(now, node_w)
            get = utilization.get
            cpu += get("cpu", 0.0)
            mem += get("mem", 0.0)
            disk += get("disk", 0.0)
            net += get("net", 0.0)
        self.series.record(now, watts)
        n = len(self.servers)
        means = (cpu / n, mem / n, disk / n, net / n)
        for series, mean in zip(self.per_component.values(), means):
            series.record(now, mean)
        return watts


def metered_run(meter_class, faulted):
    """Seeded CPU, disk and network load on a 4-slave cluster, metered
    every half second.  One slave leaves P0; with ``faulted`` one
    crashes and another is powered off, then boots back."""
    rng = random.Random(5)
    sim = Simulation()
    cluster = hadoop_cluster(sim, "edison", 4)
    servers = list(cluster.servers.values())
    slaves = [s for s in servers if "slave" in s.name]
    injector = None
    if faulted:
        injector = FaultInjector(cluster, FaultPlan(faults=(
            node_crash(slaves[1].name, at=2.2, repair_s=3.1),)))
    meter = meter_class(sim, servers, interval=0.5)
    meter.start(until=12.0)
    topology = cluster.topology

    def load():
        while sim.now < 11.0:
            server = rng.choice(servers)
            roll = rng.random()
            if roll < 0.4:
                sim.process(server.cpu.execute(
                    rng.uniform(0.1, 3.0) * server.spec.cpu.vcore_dmips))
            elif roll < 0.7:
                sim.process(server.storage.read(rng.uniform(1e5, 5e6)))
            else:
                other = rng.choice([s for s in servers if s is not server])
                topology.network.start_flow(
                    topology.path(server.name, other.name),
                    rng.uniform(1e5, 3e6))
            yield rng.uniform(0.0, 0.3)

    def control():
        yield 1.3
        slaves[2].cpu.set_pstate(2)
        if faulted:
            yield 1.0
            injector.admin_power_off(slaves[3].name)
            yield 3.0
            injector.admin_begin_boot(slaves[3].name)
            yield 1.0
            injector.admin_power_on(slaves[3].name)

    sim.process(load())
    sim.process(control())
    sim.run(until=13.0)
    traces = [meter.series] + list(meter.per_node.values()) \
        + list(meter.per_component.values())
    return [(ts.name, ts.times, ts.values) for ts in traces]


@pytest.mark.parametrize("faulted", [False, True])
def test_meter_equals_the_dict_oracle(faulted):
    got = metered_run(PowerMeter, faulted)
    assert got == metered_run(OracleMeter, faulted)
    # The cases are live: a node at 0 W (admin off), one at idle
    # watts while crashed, and busy readings above idle.
    per_node = {name: values for name, _t, values in got}
    if faulted:
        assert 0.0 in per_node["meter.edison-slave-3.power_w"]
    assert any(v > min(vs) for vs in per_node.values() for v in vs)


def test_window_blend_equals_the_dict_blend():
    rng = random.Random(11)
    odd = PowerSpec(idle_w=3.0, busy_w=7.5, adapter_w=0.25, weights={
        "net": 0.1, "disk": 0.2, "cpu": 0.6, "mem": 0.1})
    specs = (EDISON.power, DELL_R620.power, odd)
    pstates = (None,) + EDISON.cpu.pstates + DELL_R620.cpu.pstates
    edges = (0.0, -0.0, 1.0, -0.5, 1.5, float("nan"), float("inf"))
    for _ in range(3000):
        window = tuple(rng.choice(edges) if rng.random() < 0.1
                       else rng.random() for _ in range(4))
        spec, pstate = rng.choice(specs), rng.choice(pstates)
        utilization = dict(zip(("cpu", "mem", "disk", "net"), window))
        want = dict_power(spec, utilization, pstate)
        got = spec.window_power(window, pstate)
        assert got == want
        assert spec.power(utilization, pstate) == got


def test_meter_checks_the_blend_knows_its_components_once():
    spec = dataclasses.replace(EDISON, power=PowerSpec(
        idle_w=1.0, busy_w=2.0, weights={"cpu": 0.5, "disk": 0.5}))
    sim = Simulation()
    with pytest.raises(ValueError, match="'mem'"):
        PowerMeter(sim, [Server(sim, spec, "odd")])


# -- the block census ---------------------------------------------------------

def walked_census(hdfs):
    """The census as a fresh walk, with three fault queries per node."""
    dead, unreadable = set(), set()
    faults = hdfs.sim.faults
    if faults is not None:
        for name in hdfs._node_order:
            if faults.disk_failed(name):
                dead.add(name)
                unreadable.add(name)
            elif not (faults.is_up(name) and faults.is_reachable(name)):
                unreadable.add(name)
    live = under = unavailable = 0
    lost_ids = []
    for block in hdfs.blocks.values():
        readable = stranded = 0
        for name in block.replicas:
            if name not in unreadable:
                readable += 1
            elif name not in dead:
                stranded += 1
        if not (readable or stranded):
            lost_ids.append(block.block_id)
            continue
        live += 1
        if readable < hdfs.replication:
            under += 1
            if readable == 0:
                unavailable += 1
    return ({"blocks_created": hdfs._next_block, "blocks_live": live,
             "blocks_lost": len(lost_ids), "under_replicated": under,
             "unavailable": unavailable}, lost_ids)


class CensusChecks:
    """Compares the census with a fresh walk; hooked in as the repair
    ledger and as a fault listener, so it runs right after each write."""

    def __init__(self, hdfs):
        self.hdfs = hdfs
        self.checks = 0
        self.repairs = 0
        self.changes = set()

    def check(self):
        census = self.hdfs.census()
        assert census == walked_census(self.hdfs)
        self.changes.add(repr(census))
        # Fresh containers: scribbling on one leaves the next intact.
        census[0]["blocks_live"] = -1
        census[1].append(-1)
        assert self.hdfs.census() == walked_census(self.hdfs)
        self.checks += 1

    def on_repair(self, source, target, seconds, nbytes):
        self.repairs += 1
        self.check()

    def on_fault(self, event, node, kind):
        self.check()


@pytest.mark.parametrize("seed", range(3))
def test_cached_census_equals_a_fresh_walk_after_every_write(seed):
    rng = random.Random(seed)
    sim = Simulation()
    cluster = hadoop_cluster(sim, "edison", 6, racks=2)
    names = [f"edison-slave-{i}" for i in range(6)]
    racks = cluster.topology.racks()
    injector = FaultInjector(cluster, FaultPlan(faults=(
        node_crash(names[rng.randrange(6)], at=3.0, repair_s=15.0),
        disk_failure(names[rng.randrange(6)], at=rng.uniform(4.0, 9.0)),
        rack_partition(racks[0], at=12.0, duration=6.0),
        node_set_partition(rng.sample(names, 2), at=14.0, duration=3.0),
        switch_down(racks[1], at=24.0, duration=4.0),
        node_crash(names[rng.randrange(6)], at=26.0, repair_s=2.0),
        disk_failure(names[rng.randrange(6)], at=30.0))))
    hdfs = Hdfs(sim, cluster.topology,
                [cluster.servers[name] for name in names],
                block_bytes=1 << 20, replication=rng.randint(2, 3),
                rng=random.Random(seed))
    hdfs.rack_aware = bool(seed % 2)
    checks = CensusChecks(hdfs)
    detector = PhiAccrualDetector(sim)
    streams = RngStreams(seed)
    for node in names:
        sim.process(_heartbeat_feeder(sim, detector, node,
                                      streams.stream(f"phi.{node}")))
    hdfs.enable_repair(detector, ledger=checks)
    injector.add_listener(checks.on_fault)

    def placements():
        for i in range(12):
            hdfs.stage_file(f"f{i}", rng.randint(1, 6) << 20)
            checks.check()
            yield rng.uniform(0.5, 4.0)

    def admin():
        yield 8.0
        injector.admin_power_off(names[5])
        checks.check()
        yield 5.0
        injector.admin_begin_boot(names[5])
        checks.check()
        yield 1.0
        injector.admin_power_on(names[5])
        checks.check()

    def sampler():
        while True:
            checks.check()
            yield 0.25

    sim.process(placements())
    sim.process(admin())
    sim.process(sampler())
    sim.run(until=60.0)
    assert checks.repairs > 0
    assert len(checks.changes) > 10
