"""Unit tests for energy metering, the overhead ledger and cluster
composition."""

import pytest

from repro.cluster import (
    Cluster, dell_cluster, edison_cluster, hadoop_cluster, web_cluster,
)
from repro.core import metrics, paperdata as paper
from repro import work_done_per_joule
from repro.autoscale import AutoscaleLedger
from repro.durability import DurabilityLedger
from repro.energy import OverheadLedger, PowerMeter
from repro.hardware import DELL_R620, EDISON, make_server
from repro.resilience import LEDGER_CATEGORIES, LEDGER_COUNTERS
from repro.sim import Simulation


# -- PowerMeter ---------------------------------------------------------------

def test_meter_idle_energy_matches_idle_power():
    sim = Simulation()
    server = make_server(sim, EDISON, "e0")
    meter = PowerMeter(sim, [server], interval=1.0)
    meter.start(until=10)
    sim.run()
    assert meter.energy_joules() == pytest.approx(10 * EDISON.power.min_w)
    assert meter.mean_power() == pytest.approx(EDISON.power.min_w)


def test_meter_sees_busy_power():
    sim = Simulation()
    server = make_server(sim, DELL_R620, "d0")
    meter = PowerMeter(sim, [server], interval=0.5)

    def hog():
        for _ in range(server.spec.cpu.vcores):
            sim.process(server.cpu.execute(
                10 * server.spec.cpu.vcore_dmips))
        yield sim.timeout(0)

    sim.process(hog())
    meter.start(until=10)
    sim.run()
    # CPU pegged for the whole window: power near busy (cpu weight < 1).
    assert meter.mean_power() > DELL_R620.power.min_w + 20


def test_meter_requires_servers_and_valid_interval():
    sim = Simulation()
    server = make_server(sim, EDISON, "e0")
    with pytest.raises(ValueError):
        PowerMeter(sim, [], interval=1.0)
    with pytest.raises(ValueError):
        PowerMeter(sim, [server], interval=0)


def test_meter_cannot_start_twice():
    sim = Simulation()
    server = make_server(sim, EDISON, "e0")
    meter = PowerMeter(sim, [server])
    meter.start(until=1)
    with pytest.raises(RuntimeError):
        meter.start(until=1)


# -- work-done-per-joule ------------------------------------------------------

def test_work_done_per_joule():
    # The package's headline export is the one core.metrics definition.
    assert work_done_per_joule is metrics.work_done_per_joule
    assert work_done_per_joule(10, 5) == 2
    with pytest.raises(ValueError):
        work_done_per_joule(10, 0)


# -- OverheadLedger -----------------------------------------------------------

#: Each plane's ledger as the plane builds it (the durability census
#: is never walked here, so it needs no HDFS).
PLANE_LEDGERS = {
    "resilience": lambda: OverheadLedger(LEDGER_CATEGORIES, LEDGER_COUNTERS),
    "autoscale": AutoscaleLedger,
    "durability": lambda: DurabilityLedger(Simulation(), hdfs=None),
}


@pytest.mark.parametrize("plane", sorted(PLANE_LEDGERS))
def test_overhead_ledger_charges_counts_and_validates(plane):
    ledger = PLANE_LEDGERS[plane]()
    categories = list(ledger.joules)
    first, last = categories[0], categories[-1]
    assert first != last
    assert sum(ledger.joules.values()) == 0.0
    ledger.charge(first, seconds=2.0, watts=1.5)
    ledger.charge(first, seconds=1.0, watts=1.5)
    ledger.charge(last, seconds=10.0, watts=0.5)
    assert ledger.joules[first] == pytest.approx(4.5)
    assert ledger.joules[last] == pytest.approx(5.0)
    assert sum(ledger.joules.values()) == pytest.approx(9.5)
    for category, seconds, watts in (("gremlin", 1.0, 1.0),
                                     (first, -1.0, 1.0),
                                     (first, 1.0, -1.0)):
        with pytest.raises(ValueError):
            ledger.charge(category, seconds=seconds, watts=watts)
    assert list(ledger.joules) == categories
    assert sum(ledger.joules.values()) == pytest.approx(9.5)
    names = list(ledger.counters)
    for name in names:
        ledger.count(name)
    assert all(n == 1 for n in ledger.counters.values())
    with pytest.raises(KeyError):
        ledger.count("gremlin")
    assert list(ledger.counters) == names


# -- Cluster ------------------------------------------------------------------

def test_edison_cluster_idle_busy_watts_match_table3():
    sim = Simulation()
    cluster = edison_cluster(sim, nodes=35)
    assert cluster.idle_watts() == pytest.approx(
        paper.T3_EDISON_CLUSTER35_IDLE_W)
    assert sum(s.spec.power.max_w for s in cluster.metered_servers) \
        == pytest.approx(paper.T3_EDISON_CLUSTER35_BUSY_W)


def test_dell_cluster_idle_busy_watts_match_table3():
    sim = Simulation()
    cluster = dell_cluster(sim, nodes=3)
    assert cluster.idle_watts() == pytest.approx(
        paper.T3_DELL_CLUSTER3_IDLE_W)
    assert sum(s.spec.power.max_w for s in cluster.metered_servers) \
        == pytest.approx(paper.T3_DELL_CLUSTER3_BUSY_W)


def test_hadoop_cluster_excludes_master_from_metering():
    sim = Simulation()
    cluster = hadoop_cluster(sim, "edison", slaves=35)
    assert len(cluster) == 36
    assert len(cluster.metered_servers) == 35
    assert all(s.platform == "edison" for s in cluster.metered_servers)
    assert cluster.servers["master"].platform == "dell"


def test_hadoop_cluster_validation():
    sim = Simulation()
    with pytest.raises(ValueError):
        hadoop_cluster(sim, "arm", slaves=2)
    with pytest.raises(ValueError):
        hadoop_cluster(sim, "edison", slaves=0)


@pytest.mark.parametrize("scale,web,cache", [
    ("full", 24, 11), ("1/2", 12, 6), ("1/4", 6, 3), ("1/8", 3, 2),
])
def test_web_cluster_edison_counts_match_table6(scale, web, cache):
    sim = Simulation()
    cluster = web_cluster(sim, "edison", scale)
    webs = [n for n in cluster.servers if n.startswith("web-")]
    caches = [n for n in cluster.servers if n.startswith("cache-")]
    assert len(webs) == web
    assert len(caches) == cache


def test_web_cluster_dell_full_counts():
    sim = Simulation()
    cluster = web_cluster(sim, "dell", "full")
    webs = [n for n in cluster.servers if n.startswith("web-")]
    caches = [n for n in cluster.servers if n.startswith("cache-")]
    assert (len(webs), len(caches)) == (2, 1)
    # Shared DB + clients exist but are unmetered.
    assert "db-0" in cluster.servers
    assert "client-7" in cluster.servers
    assert len(cluster.metered_servers) == 3


def test_web_cluster_dell_has_no_small_scales():
    sim = Simulation()
    with pytest.raises(ValueError):
        web_cluster(sim, "dell", "1/4")
    with pytest.raises(ValueError):
        web_cluster(sim, "dell", "1/16")
    with pytest.raises(ValueError):
        web_cluster(sim, "vax", "full")


def test_cluster_add_many_and_iteration():
    sim = Simulation()
    cluster = Cluster(sim)
    servers = cluster.add_many(EDISON, 4, prefix="n")
    assert len(cluster) == 4
    assert [s.name for s in cluster] == [s.name for s in servers]
    with pytest.raises(ValueError):
        cluster.add_many(EDISON, 0, prefix="x")


def test_cluster_meter_lifecycle():
    sim = Simulation()
    cluster = edison_cluster(sim, nodes=2)
    with pytest.raises(RuntimeError):
        _ = cluster.meter
    meter = cluster.attach_meter(interval=1.0)
    assert cluster.meter is meter
    with pytest.raises(RuntimeError):
        cluster.attach_meter()
