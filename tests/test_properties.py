"""Property-based tests (hypothesis) for core data structures/invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import speedup_per_doubling
from repro.hardware import MemorySpec, PowerSpec, StorageSpec
from repro.net import FlowNetwork, Segment
from repro.sim import Container, Resource, Simulation, TimeSeries
from repro.tco import TcoInputs, cluster_tco
from repro.web.params import tuned_calls_per_connection


# -- kernel ordering -----------------------------------------------------------

@given(st.lists(st.floats(min_value=0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50))
def test_events_fire_in_time_order(delays):
    sim = Simulation()
    fired = []

    def waiter(delay):
        yield sim.timeout(delay)
        fired.append(sim.now)

    for delay in delays:
        sim.process(waiter(delay))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(st.integers(min_value=1, max_value=20),
       st.lists(st.floats(min_value=0.01, max_value=10, allow_nan=False),
                min_size=1, max_size=40))
def test_resource_never_exceeds_capacity(capacity, holds):
    sim = Simulation()
    resource = Resource(sim, capacity=capacity)
    observed = []

    def user(hold):
        with resource.request() as req:
            yield req
            observed.append(resource.count)
            yield sim.timeout(hold)

    for hold in holds:
        sim.process(user(hold))
    sim.run()
    assert all(1 <= count <= capacity for count in observed)
    assert resource.count == 0
    assert resource.queue_length == 0
    # Busy time cannot exceed capacity x elapsed.
    assert resource.busy_time() <= capacity * sim.now + 1e-9


@given(st.floats(min_value=1, max_value=1e6, allow_nan=False),
       st.lists(st.tuples(st.booleans(),
                          st.floats(min_value=0.01, max_value=100)),
                max_size=30))
def test_container_level_stays_in_bounds(capacity, operations):
    sim = Simulation()
    box = Container(sim, capacity=capacity, init=capacity / 2)

    def driver():
        for is_put, amount in operations:
            amount = min(amount, capacity / 4)
            event = box.put(amount) if is_put else box.get(amount)
            # Avoid deadlock: only wait if it can ever be satisfied.
            if event.triggered:
                yield sim.timeout(0.001)
        yield sim.timeout(0)

    sim.process(driver())
    sim.run()
    assert 0 <= box.level <= capacity


# -- time series ----------------------------------------------------------------

@given(st.lists(st.tuples(st.floats(min_value=0, max_value=1000),
                          st.floats(min_value=0, max_value=500)),
                min_size=2, max_size=50))
def test_integral_of_nonnegative_series_is_nonnegative(samples):
    series = TimeSeries()
    for t, v in sorted(samples, key=lambda p: p[0]):
        series.record(t, v)
    assert series.integrate() >= 0
    assert series.maximum() >= series.mean() - 1e-12


@given(st.floats(min_value=0.1, max_value=1000),
       st.floats(min_value=0, max_value=500),
       st.integers(min_value=2, max_value=50))
def test_constant_power_energy_identity(duration, watts, samples):
    """Energy of a constant-power trace == P x T at any sampling rate."""
    series = TimeSeries()
    for i in range(samples):
        series.record(duration * i / (samples - 1), watts)
    assert math.isclose(series.integrate(), watts * duration,
                        rel_tol=1e-9, abs_tol=1e-9)


# -- flows -----------------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.integers(min_value=0, max_value=3),
                          st.floats(min_value=1, max_value=1e7)),
                min_size=1, max_size=20))
@settings(deadline=None)
def test_all_flows_complete_and_account_bytes(flow_specs):
    sim = Simulation()
    net = FlowNetwork(sim)
    segments = [Segment(f"s{i}", 1e6) for i in range(4)]
    events = []
    total = 0.0
    for a, b, nbytes in flow_specs:
        path = [segments[a]] if a == b else [segments[a], segments[b]]
        events.append(net.start_flow(path, nbytes))
        total += nbytes
    sim.run()
    assert all(e.triggered for e in events)
    assert not net.flows
    # Lower bound: everything through one segment at its capacity.
    assert sim.now * 4 * 1e6 >= total * 0.999


@given(st.floats(min_value=1, max_value=1e9),
       st.floats(min_value=1, max_value=1e9))
def test_single_flow_time_is_bytes_over_capacity(nbytes, capacity):
    sim = Simulation()
    net = FlowNetwork(sim)
    done = net.start_flow([Segment("s", capacity)], nbytes)
    sim.run(until=done)
    assert math.isclose(sim.now, nbytes / capacity, rel_tol=1e-3,
                        abs_tol=1e-6)


# -- hardware specs ---------------------------------------------------------------

@given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_power_monotone_in_cpu_utilisation(u1, u2):
    spec = PowerSpec(idle_w=10, busy_w=50, weights={"cpu": 1.0})
    lo, hi = sorted((u1, u2))
    assert spec.power({"cpu": lo}) <= spec.power({"cpu": hi})
    assert spec.min_w <= spec.power({"cpu": u1}) <= spec.max_w


@given(st.integers(min_value=256, max_value=1 << 22),
       st.integers(min_value=1, max_value=32))
def test_memory_bandwidth_bounded_and_monotone(block, threads):
    spec = MemorySpec(capacity_bytes=1e9, peak_bandwidth_bps=2.2e9,
                      saturation_threads=2)
    rate = spec.bandwidth(block, threads)
    assert 0 < rate <= spec.peak_bandwidth_bps
    assert rate <= spec.bandwidth(block * 2, threads)
    assert rate <= spec.bandwidth(block, threads + 1)


@given(st.floats(min_value=1, max_value=1e8))
def test_storage_io_time_positive_and_additive(nbytes):
    spec = StorageSpec(write_bps=4.5e6, buffered_write_bps=9.3e6,
                       read_bps=19.5e6, buffered_read_bps=737e6,
                       write_latency_s=0.018, read_latency_s=0.007)
    from repro.hardware import Storage
    sim = Simulation()
    disk = Storage(sim, spec)
    t = disk.io_time("read", nbytes)
    assert t >= spec.read_latency_s
    assert disk.io_time("read", 2 * nbytes) > t


# -- metrics / models ----------------------------------------------------------------

@given(st.floats(min_value=1, max_value=1e5),
       st.integers(min_value=2, max_value=6))
def test_exact_halving_gives_speedup_two(base_time, steps):
    times = {2 ** i: base_time / (2 ** i) for i in range(steps)}
    assert math.isclose(speedup_per_doubling(times), 2.0, rel_tol=1e-9)


@given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_tco_monotone_in_utilisation(u1, u2):
    inputs = TcoInputs(node_cost_usd=100, peak_power_w=100, idle_power_w=50)
    lo, hi = sorted((u1, u2))
    assert cluster_tco(inputs, 5, lo) <= cluster_tco(inputs, 5, hi)


@given(st.integers(min_value=1, max_value=10000),
       st.floats(min_value=1, max_value=1e6))
def test_tuned_calls_always_in_bounds(concurrency, target):
    calls = tuned_calls_per_connection(concurrency, target)
    assert 5 <= calls <= 40
