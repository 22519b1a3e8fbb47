"""Unit tests for the MapReduce substrate: config, HDFS, YARN, costs."""

import random

import pytest

from repro.cluster import hadoop_cluster
from repro.mapreduce import HadoopConfig, Hdfs, YarnScheduler, default_config
from repro.mapreduce.costs import DENSITY_BETA, JobCosts, effective_factor
from repro.sim import Simulation


# -- HadoopConfig --------------------------------------------------------------

def test_default_config_edison_matches_section52():
    config = default_config("edison")
    assert config.block_mb == 16
    assert config.replication == 2
    assert config.node_task_mem_mb == 600
    assert config.node_vcores == 2


def test_default_config_dell_matches_section52():
    config = default_config("dell")
    assert config.block_mb == 64
    assert config.replication == 1
    assert config.node_task_mem_mb == 12 * 1024
    assert config.node_vcores == 12


def test_default_config_unknown_platform():
    with pytest.raises(ValueError):
        default_config("sparc")


@pytest.mark.parametrize("heartbeat_s", [float("nan"), float("inf"), -1.0,
                                         0.0])
def test_config_rejects_bad_heartbeat(heartbeat_s):
    with pytest.raises(ValueError, match="heartbeat_s"):
        HadoopConfig(platform="edison", block_mb=16, replication=2,
                     node_task_mem_mb=600, node_vcores=2, am_mem_mb=300,
                     heartbeat_s=heartbeat_s)


def test_config_with_block_mb():
    config = default_config("edison").with_block_mb(32)
    assert config.block_mb == 32
    assert config.replication == 2


def test_config_validation():
    with pytest.raises(ValueError):
        HadoopConfig("edison", block_mb=0, replication=1,
                     node_task_mem_mb=100, node_vcores=1, am_mem_mb=10)
    with pytest.raises(ValueError):
        HadoopConfig("edison", block_mb=1, replication=1,
                     node_task_mem_mb=100, node_vcores=1, am_mem_mb=10,
                     slowstart=0)


# -- Hdfs -----------------------------------------------------------------------

def make_hdfs(platform="edison", slaves=4, block_mb=16, replication=2):
    sim = Simulation()
    cluster = hadoop_cluster(sim, platform, slaves)
    hdfs = Hdfs(sim, cluster.topology, cluster.metered_servers,
                block_mb * 1000 * 1000, replication, random.Random(3))
    return sim, cluster, hdfs


def test_hdfs_blocks_split_at_block_size():
    sim, cluster, hdfs = make_hdfs()
    record = hdfs.stage_file("f", 40_000_000)
    assert len(record.blocks) == 3          # 16 + 16 + 8 MB
    assert sum(b.size_bytes for b in record.blocks) == 40_000_000


def test_hdfs_replicas_distinct_nodes():
    sim, cluster, hdfs = make_hdfs(replication=2)
    record = hdfs.stage_file("f", 64_000_000)
    for block in record.blocks:
        assert len(block.replicas) == 2
        assert len(set(block.replicas)) == 2


def test_hdfs_validation():
    sim, cluster, hdfs = make_hdfs()
    with pytest.raises(ValueError):
        hdfs.stage_file("f", 0)
    hdfs.stage_file("f", 100)
    with pytest.raises(ValueError):
        hdfs.stage_file("f", 100)       # duplicate name
    with pytest.raises(ValueError):
        Hdfs(sim, cluster.topology, cluster.metered_servers, 1000, 9,
             random.Random(1))          # replication > nodes


def test_hdfs_local_read_uses_own_disk():
    sim, cluster, hdfs = make_hdfs()
    record = hdfs.stage_file("f", 10_000_000)
    block = record.blocks[0]
    node = block.replicas[0]

    def reader():
        yield from hdfs.read_block(node, block)

    sim.run(until=sim.process(reader()))
    # 10 MB at 19.5 MB/s direct read ~= 0.51 s (plus access latency).
    assert sim.now == pytest.approx(10e6 / 19.5e6, rel=0.05)
    assert cluster.servers[node].storage.bytes_read == pytest.approx(10e6)


def test_hdfs_remote_read_crosses_network():
    sim, cluster, hdfs = make_hdfs()
    record = hdfs.stage_file("f", 10_000_000)
    block = record.blocks[0]
    outsider = [n for n in cluster.servers
                if n.startswith("edison") and n not in block.replicas][0]

    def reader():
        yield from hdfs.read_block(outsider, block)

    sim.run(until=sim.process(reader()))
    # Remote: bounded by the 100 Mb/s NIC line rate (12.5 MB/s), which
    # is slower than overlapping the source's disk read.
    assert sim.now == pytest.approx(10e6 / 12.5e6, rel=0.05)


def test_hdfs_write_replicates():
    sim, cluster, hdfs = make_hdfs(replication=2)
    node = cluster.metered_servers[0].name

    def writer():
        yield from hdfs.write(node, 5_000_000)

    sim.run(until=sim.process(writer()))
    written = sum(s.storage.bytes_written for s in cluster.metered_servers)
    assert written == pytest.approx(10_000_000)   # 2 replicas


def test_hdfs_zero_byte_write_is_noop():
    sim, cluster, hdfs = make_hdfs()
    node = cluster.metered_servers[0].name

    def writer():
        yield from hdfs.write(node, 0)
        return "done"

    result = sim.run(until=sim.process(writer()))
    assert result == "done"


# -- YarnScheduler ---------------------------------------------------------------

def make_yarn(platform="edison", slaves=3):
    sim = Simulation()
    cluster = hadoop_cluster(sim, platform, slaves)
    yarn = YarnScheduler(sim, cluster.metered_servers,
                         default_config(platform), random.Random(5))
    return sim, cluster, yarn


def test_yarn_grants_up_to_node_memory():
    sim, cluster, yarn = make_yarn(slaves=1)
    grants = []

    def task():
        grant = yield from yarn.allocate(150)
        grants.append(grant)
        yield sim.timeout(100)
        yarn.release(grant)

    for _ in range(6):
        sim.process(task())
    sim.run(until=50)
    # 600 MB node memory -> 4 concurrent 150 MB containers.
    assert len(grants) == 4
    sim.run(until=200)
    assert len(grants) == 6


def test_yarn_release_restores_memory():
    sim, cluster, yarn = make_yarn(slaves=1)
    nm = yarn.nodes[cluster.metered_servers[0].name]

    def task():
        grant = yield from yarn.allocate(300)
        assert nm.free_mem_mb == 300
        yarn.release(grant)

    sim.run(until=sim.process(task()))
    assert nm.free_mem_mb == 600


def test_yarn_validation():
    sim, cluster, yarn = make_yarn()
    with pytest.raises(ValueError):
        next(yarn.allocate(0))
    with pytest.raises(ValueError):
        YarnScheduler(sim, [], default_config("edison"), random.Random(1))


def test_nodemanager_overreserve_rejected():
    sim, cluster, yarn = make_yarn(slaves=1)
    nm = yarn.nodes[cluster.metered_servers[0].name]
    with pytest.raises(ValueError):
        nm.reserve(601)


@pytest.mark.parametrize("size", [-100, 0])
def test_nodemanager_non_positive_reserve_leaves_state_alone(size):
    sim, cluster, yarn = make_yarn(slaves=1)
    server = cluster.metered_servers[0]
    nm = yarn.nodes[server.name]
    nm.reserve(150)
    with pytest.raises(ValueError, match="mem_mb must be >= 1"):
        nm.reserve(size)
    assert nm.free_mem_mb == 450
    assert server.memory.utilization() == pytest.approx(
        150e6 / server.memory.capacity_bytes)


# -- Costs ----------------------------------------------------------------------

def test_effective_factor_density_penalty():
    costs = JobCosts(1, 1, 1, java_factor={"edison": 1.0, "dell": 2.0})
    assert effective_factor(costs, "edison", 2.0) == 1.0  # beta 0
    dell_beta = DENSITY_BETA["dell"]
    assert effective_factor(costs, "dell", 2.0) == pytest.approx(
        2.0 * (1 + dell_beta))
    assert effective_factor(costs, "dell", 1.0) == 2.0
    assert effective_factor(costs, "dell", 0.5) == 2.0  # no bonus below 1


def test_jobcosts_unknown_platform():
    costs = JobCosts(1, 1, 1)
    with pytest.raises(ValueError):
        costs.factor("sparc")


# -- Straggler cost anchor -----------------------------------------------------

def test_straggler_anchor_uses_pool_median_not_slave_zero():
    """Regression: _estimate_map_s anchored to slave 0's DMIPS, so on a
    heterogeneous pool whichever platform sorted first set the straggler
    baseline for everyone — a Dell-anchored estimate flags every Edison
    attempt as LATE.  The anchor is now the pool-median vcore rate."""
    from repro.mapreduce import JOB_FACTORIES, JobRunner

    spec, config = JOB_FACTORIES["wordcount2"]("edison", 4)
    runner = JobRunner("edison", 4, config=config, seed=3)
    homogeneous = runner._estimate_map_s(spec, 1.0)

    donor = JobRunner("dell", 2, seed=3)
    dell = donor.slave_servers[0]
    edisons = list(runner.slave_servers)

    # One Dell among three Edisons: the median is still the Edison
    # rate, so the estimate matches the homogeneous pool exactly...
    runner.slave_servers = [dell] + edisons[:3]
    assert runner._estimate_map_s(spec, 1.0) == homogeneous
    # ...and does not depend on which platform happens to sort first.
    runner.slave_servers = edisons[:3] + [dell]
    assert runner._estimate_map_s(spec, 1.0) == homogeneous

    # The old slave-0 anchor would have priced every map at Dell speed.
    runner.slave_servers = [dell] * 4
    assert runner._estimate_map_s(spec, 1.0) < homogeneous
