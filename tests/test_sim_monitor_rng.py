"""Unit tests for time-series monitors and RNG streams."""

import random

import pytest

from repro.sim import (RngStreams, Simulation, TimeSeries, derive_seed,
                       heartbeat_jitter)
from repro.sim.monitor import periodic_sampler


def test_timeseries_record_and_len():
    ts = TimeSeries("t")
    ts.record(0, 1.0)
    ts.record(1, 2.0)
    assert len(ts) == 2


def test_timeseries_rejects_time_reversal():
    ts = TimeSeries()
    ts.record(5, 1.0)
    with pytest.raises(ValueError):
        ts.record(4, 1.0)


def test_timeseries_rejects_non_finite_time():
    ts = TimeSeries()
    ts.record(0.0, 1.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            ts.record(bad, 1.0)
    ts.record(1.0, 2.0)
    assert ts.times == [0.0, 1.0]
    with pytest.raises(ValueError):
        TimeSeries().record(float("nan"), 0.0)


def test_timeseries_at_step_function():
    ts = TimeSeries()
    ts.record(0, 10.0)
    ts.record(10, 20.0)
    assert ts.at(0) == 10.0
    assert ts.at(9.99) == 10.0
    assert ts.at(10) == 20.0
    assert ts.at(100) == 20.0


def test_timeseries_at_before_first_sample():
    ts = TimeSeries()
    ts.record(5, 1.0)
    with pytest.raises(ValueError):
        ts.at(4)


def test_timeseries_empty_statistics_raise():
    ts = TimeSeries()
    with pytest.raises(ValueError):
        ts.mean()
    with pytest.raises(ValueError):
        ts.maximum()
    with pytest.raises(ValueError):
        ts.at(0)


def test_timeseries_integral_constant_power():
    """A constant 50 W over 10 s must integrate to 500 J."""
    ts = TimeSeries("power")
    for t in range(11):
        ts.record(t, 50.0)
    assert ts.integrate() == pytest.approx(500.0)


def test_timeseries_integral_ramp():
    """Linear 0->100 W over 10 s integrates to 500 J (triangle)."""
    ts = TimeSeries("power")
    for t in range(11):
        ts.record(t, 10.0 * t)
    assert ts.integrate() == pytest.approx(500.0)


def test_periodic_sampler_samples_on_schedule():
    sim = Simulation()
    ts = TimeSeries()
    sim.process(periodic_sampler(sim, 2.0, lambda: sim.now, ts, until=10))
    sim.run()
    assert ts.times == [0, 2, 4, 6, 8, 10]
    assert ts.values == [0, 2, 4, 6, 8, 10]


def test_periodic_sampler_rejects_bad_interval():
    sim = Simulation()
    with pytest.raises(ValueError):
        next(periodic_sampler(sim, 0, lambda: 0.0, TimeSeries()))


def test_rng_streams_are_deterministic():
    a = RngStreams(42).stream("web").random()
    b = RngStreams(42).stream("web").random()
    assert a == b


def test_rng_streams_are_independent():
    streams = RngStreams(42)
    first = streams.stream("web").random()
    # Drawing from another stream must not perturb the first one.
    streams2 = RngStreams(42)
    streams2.stream("mapreduce").random()
    second = streams2.stream("web").random()
    assert first == second


def test_rng_different_names_differ():
    streams = RngStreams(42)
    assert streams.stream("a").random() != streams.stream("b").random()


def test_rng_spawn_namespacing():
    root = RngStreams(42)
    child_a = root.spawn("x").stream("s").random()
    child_b = root.spawn("y").stream("s").random()
    assert child_a != child_b
    assert RngStreams(42).spawn("x").stream("s").random() == child_a


def test_derive_seed_stable_and_positive():
    seed = derive_seed(1, "name")
    assert seed == derive_seed(1, "name")
    assert 0 <= seed < 2 ** 63


@pytest.mark.parametrize("base_s", [float("nan"), float("inf"), -1.0])
def test_heartbeat_jitter_rejects_bad_base(base_s):
    with pytest.raises(ValueError, match="base_s"):
        heartbeat_jitter(random.Random(1), base_s)
    assert heartbeat_jitter(random.Random(1), 0.0)() == 0.0
