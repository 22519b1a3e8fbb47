"""Integration tests for the web-service deployment and its mechanisms.

These use small scales and short windows so the whole file stays fast;
the full-scale paper comparisons live in the benchmark harness.
"""

import pytest

from repro.sim import Simulation
from repro.web import (
    PortPool, WebServiceDeployment, WebWorkload, delay_distribution,
    measure_delay_decomposition,
)


# -- PortPool -----------------------------------------------------------------

def test_port_pool_acquire_until_empty():
    sim = Simulation()
    pool = PortPool(sim, size=2, time_wait_s=5.0)
    assert pool.try_acquire()
    assert pool.try_acquire()
    assert not pool.try_acquire()


def test_port_pool_recycles_after_time_wait():
    sim = Simulation()
    pool = PortPool(sim, size=1, time_wait_s=5.0)
    assert pool.try_acquire()
    pool.release_after_time_wait()
    sim.run(until=4.9)
    assert not pool.try_acquire()
    sim.run(until=5.1)
    assert pool.try_acquire()


def test_port_pool_immediate_release_without_time_wait():
    sim = Simulation()
    pool = PortPool(sim, size=1, time_wait_s=0.0)
    assert pool.try_acquire()
    pool.release_after_time_wait()
    assert pool.try_acquire()


def test_port_pool_validation():
    sim = Simulation()
    with pytest.raises(ValueError):
        PortPool(sim, size=0, time_wait_s=1)
    with pytest.raises(ValueError):
        PortPool(sim, size=1, time_wait_s=-1)


# -- Deployment basics ---------------------------------------------------------

def test_deployment_rejects_unknown_platform():
    with pytest.raises(ValueError):
        WebServiceDeployment("sparc")


def test_deployment_builds_table6_layout():
    deployment = WebServiceDeployment("edison", "1/8")
    assert deployment.web_server_count == 3
    assert len(deployment.cache_nodes) == 2
    assert len(deployment.db_nodes) == 2


def test_deployment_memory_reservations_match_paper():
    deployment = WebServiceDeployment("edison", "1/8")
    web = deployment.web_nodes[0].server
    cache = deployment.cache_nodes[0].server
    assert web.memory.utilization() == pytest.approx(0.25)
    assert cache.memory.utilization() == pytest.approx(0.54)


def test_run_level_requires_sane_window():
    deployment = WebServiceDeployment("edison", "1/8")
    with pytest.raises(ValueError):
        deployment.run_level(64, duration=1.0, warmup=2.0)


def test_run_level_throughput_tracks_offered_load():
    deployment = WebServiceDeployment("edison", "1/8")
    result = deployment.run_level(16, duration=2.0, warmup=0.5)
    offered = 16 * result.calls_per_connection
    assert result.requests_per_second == pytest.approx(offered, rel=0.25)
    assert result.error_calls == 0
    assert result.mean_power_w > deployment.cluster.idle_watts() * 0.98


def test_overload_produces_500s_on_edison():
    deployment = WebServiceDeployment("edison", "1/8")
    # Offered = 256 * 5 = 1280 req/s >> 3-server capacity (~900).
    result = deployment.run_level(256, duration=2.5, warmup=0.5)
    assert result.error_calls > 0
    assert result.has_server_errors


def test_clean_level_below_capacity_on_edison():
    deployment = WebServiceDeployment("edison", "1/8")
    result = deployment.run_level(64, duration=2.5, warmup=0.5)
    assert result.error_calls == 0


def test_energy_joules_is_power_times_window():
    deployment = WebServiceDeployment("edison", "1/8")
    result = deployment.run_level(16, duration=2.0, warmup=0.5)
    assert result.energy_joules == pytest.approx(
        result.mean_power_w * result.window_s)


def test_heavier_mix_increases_delay():
    light = WebServiceDeployment("edison", "1/8", WebWorkload())
    heavy = WebServiceDeployment(
        "edison", "1/8", WebWorkload(image_fraction=0.20))
    delay_light = light.run_level(32, duration=2.0, warmup=0.5).mean_delay_s
    delay_heavy = heavy.run_level(32, duration=2.0, warmup=0.5).mean_delay_s
    assert delay_heavy > delay_light


def test_lower_hit_ratio_increases_db_traffic():
    high = WebServiceDeployment("edison", "1/8",
                                WebWorkload(cache_hit_ratio=0.93), seed=1)
    low = WebServiceDeployment("edison", "1/8",
                               WebWorkload(cache_hit_ratio=0.60), seed=1)
    high.run_level(32, duration=2.0, warmup=0.5)
    low.run_level(32, duration=2.0, warmup=0.5)
    high_queries = sum(db.queries for db in high.db_nodes)
    low_queries = sum(db.queries for db in low.db_nodes)
    assert low_queries > 2 * high_queries


def test_call_records_capture_decomposition():
    deployment = WebServiceDeployment("edison", "1/8")
    log = []
    for node in deployment.web_nodes:
        node.observers.append(log.append)
    deployment.run_level(16, duration=2.0, warmup=0.5)
    records = [r for r in log if r.ok]
    assert records
    with_db = [r for r in records if r.db_s > 0]
    assert all(r.total_s >= r.cache_s for r in records)
    if with_db:
        assert all(r.total_s >= r.cache_s + r.db_s for r in with_db)


def test_same_seed_reproduces_identical_level():
    a = WebServiceDeployment("edison", "1/8", seed=99).run_level(
        16, duration=2.0, warmup=0.5)
    b = WebServiceDeployment("edison", "1/8", seed=99).run_level(
        16, duration=2.0, warmup=0.5)
    assert a.ok_calls == b.ok_calls
    assert a.mean_delay_s == pytest.approx(b.mean_delay_s)


# -- Table 7 ------------------------------------------------------------------

def test_delay_decomposition_platform_gap():
    edison = measure_delay_decomposition("edison", 480, duration=2.0,
                                         warmup=0.5)
    dell = measure_delay_decomposition("dell", 480, duration=2.0, warmup=0.5)
    # Table 7 at 480 req/s: Edison ~9 ms total vs Dell ~1.4 ms; DB and
    # cache legs are each several times slower on Edison.
    assert edison.total_delay_s > 3 * dell.total_delay_s
    assert edison.db_delay_s > 2 * dell.db_delay_s
    assert edison.cache_delay_s > 4 * dell.cache_delay_s
    assert dell.total_delay_s < 0.005


def test_delay_decomposition_grows_with_rate_on_edison():
    low = measure_delay_decomposition("edison", 480, duration=2.0, warmup=0.5)
    high = measure_delay_decomposition("edison", 7680, duration=2.0,
                                       warmup=0.5)
    assert high.cache_delay_s > 2 * low.cache_delay_s
    assert high.total_delay_s > 2 * low.total_delay_s


# -- Figures 10/11 ---------------------------------------------------------------

def test_delay_histogram_dell_shows_backoff_spikes():
    log = delay_distribution("dell", total_rate_rps=4000, duration=3.0,
                             warmup=1.0)
    assert log.fraction_above(0.9) > 0.2  # heavy mass at the 1 s spike


def test_delay_histogram_edison_stays_subsecond():
    log = delay_distribution("edison", total_rate_rps=4000, duration=3.0,
                             warmup=1.0)
    assert log.fraction_above(0.9) < 0.05


def test_settled_probe_call_leaves_only_a_tombstone():
    from repro.sim import Timeout
    from repro.web import UrllibProbe
    deployment = WebServiceDeployment("edison", "1/8")
    probe = UrllibProbe(deployment, 400.0)
    probe.start(until=0.5)
    deployment.sim.run(until=1.0)      # every call has settled by now
    timers = [entry[3] for entry in deployment.sim._heap
              if type(entry[3]) is Timeout
              and entry[3].delay == deployment.workload.client_timeout_s]
    # Each settled call leaves its timer in the heap as a tombstone.
    assert len(timers) > 100
    assert all(timer._cancelled for timer in timers)


def test_probe_log_histogram_bins():
    from repro.web import ProbeLog
    log = ProbeLog(delays_s=[0.1, 0.2, 1.1, 7.9, 12.0])
    hist = dict(log.histogram(bin_width_s=1.0, max_s=8.0))
    assert hist[0.0] == 2
    assert hist[1.0] == 1
    assert hist[7.0] == 2  # overflow clamps into the last bin
    with pytest.raises(ValueError):
        log.histogram(bin_width_s=0)


def test_probe_log_empty_statistics_raise():
    from repro.web import ProbeLog
    log = ProbeLog(delays_s=[])
    with pytest.raises(ValueError):
        log.mean()
    with pytest.raises(ValueError):
        log.fraction_above(1.0)
