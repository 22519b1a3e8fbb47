"""Unit tests for the discrete-event simulation kernel."""

import random
import warnings

import pytest

from repro.sim import Interrupt, Resource, Simulation, SimulationError


def test_clock_starts_at_zero():
    assert Simulation().now == 0.0


def test_clock_custom_start():
    assert Simulation(start=5.0).now == 5.0


def test_timeout_advances_clock():
    sim = Simulation()
    log = []

    def proc():
        yield sim.timeout(3.5)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [3.5]


def test_negative_timeout_rejected():
    sim = Simulation()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_timeout_carries_value():
    sim = Simulation()
    got = []

    def proc():
        value = yield sim.timeout(1, value="payload")
        got.append(value)

    sim.process(proc())
    sim.run()
    assert got == ["payload"]


def test_events_fire_in_time_order():
    sim = Simulation()
    order = []

    def proc(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    for delay, tag in [(3, "c"), (1, "a"), (2, "b")]:
        sim.process(proc(delay, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_fifo_among_simultaneous_events():
    sim = Simulation()
    order = []

    def proc(tag):
        yield sim.timeout(1)
        order.append(tag)

    for tag in range(5):
        sim.process(proc(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_time_stops_clock():
    sim = Simulation()

    def ticker():
        while True:
            yield sim.timeout(1)

    sim.process(ticker())
    sim.run(until=10)
    assert sim.now == 10


def test_run_until_past_time_rejected():
    sim = Simulation()

    def proc():
        yield sim.timeout(5)

    sim.process(proc())
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=1)


def test_process_requires_generator():
    sim = Simulation()
    with pytest.raises(TypeError):
        sim.process([1, 2, 3])


def test_run_until_event_returns_value():
    sim = Simulation()

    def proc():
        yield sim.timeout(2)
        return 42

    result = sim.run(until=sim.process(proc()))
    assert result == 42
    assert sim.now == 2


def test_run_until_event_never_fires_raises():
    sim = Simulation()
    pending = sim.event()

    def proc():
        yield sim.timeout(1)

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run(until=pending)


def _defused_failure(sim):
    """An event a waiter defuses, failed with ValueError('boom') at t=1."""
    gate = sim.event()

    def waiter():
        try:
            yield gate
        except ValueError:
            pass

    def failer():
        yield sim.timeout(1)
        gate.fail(ValueError("boom"))

    sim.process(waiter())
    sim.process(failer())
    return gate


def test_run_until_event_failing_during_the_run_raises():
    sim = Simulation()
    gate = _defused_failure(sim)
    with pytest.raises(ValueError, match="boom"):
        sim.run(until=gate)
    assert sim.now == 1


def test_run_until_event_that_already_failed_raises():
    sim = Simulation()
    gate = _defused_failure(sim)
    sim.run()
    assert gate.processed and not gate.ok
    with pytest.raises(ValueError, match="boom"):
        sim.run(until=gate)
    assert sim.now == 1


def test_run_until_event_that_already_succeeded_returns_its_value():
    sim = Simulation()
    done = sim.timeout(1, value="v")
    sim.run()
    assert sim.run(until=done) == "v"


def test_process_waits_on_process():
    sim = Simulation()
    log = []

    def child():
        yield sim.timeout(4)
        return "done"

    def parent():
        result = yield sim.process(child())
        log.append((sim.now, result))

    sim.process(parent())
    sim.run()
    assert log == [(4, "done")]


def test_yield_non_event_raises_in_process():
    sim = Simulation()

    def proc():
        yield "not an event"

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_yield_bare_number_is_a_delay():
    # A plain float/int yield is shorthand for Timeout(sim, delay).
    sim = Simulation()
    log = []

    def proc():
        yield 17
        log.append(sim.now)
        yield 2.5
        log.append(sim.now)
        yield 0
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [17.0, 19.5, 19.5]


def test_bare_number_delay_rejects_negative_and_non_finite():
    for bad in (-1.0, float("nan"), float("inf")):
        sim = Simulation()

        def proc(delay=bad):
            yield delay

        sim.process(proc())
        with pytest.raises(ValueError):
            sim.run()


def test_interrupt_during_bare_delay_does_not_double_resume():
    # The superseded calendar entry must be skipped, not delivered to
    # whatever the process waits on next.
    sim = Simulation()
    log = []

    def sleeper():
        try:
            yield 10.0
            log.append(("slept", sim.now))
        except Interrupt:
            log.append(("interrupted", sim.now))
            yield 3.0
            log.append(("resumed", sim.now))

    def poker(target):
        yield 4.0
        target.interrupt("poke")

    proc = sim.process(sleeper())
    sim.process(poker(proc))
    sim.run()
    assert log == [("interrupted", 4.0), ("resumed", 7.0)]


def test_event_succeed_wakes_waiter():
    sim = Simulation()
    gate = sim.event()
    log = []

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    def opener():
        yield sim.timeout(7)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert log == [(7, "open")]


def test_event_double_trigger_rejected():
    sim = Simulation()
    gate = sim.event()
    gate.succeed()
    with pytest.raises(SimulationError):
        gate.succeed()


def test_event_fail_propagates_to_waiter():
    sim = Simulation()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield sim.timeout(1)
        gate.fail(RuntimeError("boom"))

    sim.process(waiter())
    sim.process(failer())
    sim.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    sim = Simulation()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_unhandled_process_exception_surfaces():
    sim = Simulation()

    def bad():
        yield sim.timeout(1)
        raise ValueError("unhandled")

    sim.process(bad())
    with pytest.raises(ValueError, match="unhandled"):
        sim.run()


def test_interrupt_delivers_cause():
    sim = Simulation()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupt as interrupt:
            log.append((sim.now, interrupt.cause))

    def interrupter(victim):
        yield sim.timeout(3)
        victim.interrupt(cause="failure-injection")

    victim = sim.process(sleeper())
    sim.process(interrupter(victim))
    sim.run()
    assert log == [(3, "failure-injection")]


def test_interrupt_dead_process_rejected():
    sim = Simulation()

    def quick():
        yield sim.timeout(1)

    victim = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        victim.interrupt()


def test_self_interrupt_rejected():
    sim = Simulation()
    log = []

    def selfish():
        with pytest.raises(SimulationError, match="interrupt itself"):
            sim.active_process.interrupt()
        yield 5.0
        log.append(sim.now)

    sim.process(selfish())
    sim.run()
    assert log == [5.0]


def test_any_of_fires_on_first():
    sim = Simulation()
    log = []

    def proc():
        t_fast = sim.timeout(1, value="fast")
        t_slow = sim.timeout(5, value="slow")
        result = yield sim.any_of([t_fast, t_slow])
        log.append((sim.now, sorted(result.values())))

    sim.process(proc())
    sim.run()
    assert log == [(1, ["fast"])]


def test_all_of_waits_for_all():
    sim = Simulation()
    log = []

    def proc():
        events = [sim.timeout(d, value=d) for d in (1, 5, 3)]
        result = yield sim.all_of(events)
        log.append((sim.now, sorted(result.values())))

    sim.process(proc())
    sim.run()
    assert log == [(5, [1, 3, 5])]


def test_all_of_empty_fires_immediately():
    sim = Simulation()
    log = []

    def proc():
        yield sim.all_of([])
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [0.0]


def test_run_on_empty_schedule_returns_at_once():
    sim = Simulation(start=2.0)
    assert sim.run() is None
    assert sim.now == 2.0
    assert sim.calendar_stats()["scheduled"] == 0


def test_run_drains_to_the_last_event_time():
    sim = Simulation()
    sim.timeout(9)
    sim.run()
    assert sim.now == 9
    assert sim.calendar_stats()["heap_now"] == 0


def test_calendar_stats_reads_the_counter_without_warnings():
    sim = Simulation()
    sim.timeout(1)
    sim.timeout(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = sim.calendar_stats()
        assert sim.calendar_stats() == first
    assert first["scheduled"] == 2
    # Reading the counter consumes no sequence number.
    sim.timeout(3)
    assert sim.calendar_stats()["scheduled"] == 3


def test_process_value_available_after_run():
    sim = Simulation()

    def proc():
        yield sim.timeout(1)
        return "result"

    p = sim.process(proc())
    sim.run()
    assert p.ok and p.value == "result"


def test_event_value_unavailable_before_trigger():
    sim = Simulation()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


# -- non-finite time guards -------------------------------------------------


def test_timeout_rejects_non_finite_and_negative_delay():
    sim = Simulation()
    for bad in (float("nan"), float("inf"), float("-inf"), -0.5):
        with pytest.raises(ValueError):
            sim.timeout(bad)


def test_simulation_rejects_non_finite_start():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            Simulation(start=bad)


def test_run_rejects_non_finite_until():
    for bad in (float("nan"), float("inf"), float("-inf")):
        sim = Simulation()
        with pytest.raises(ValueError):
            sim.run(until=bad)


def test_schedule_rejects_non_finite_delay():
    sim = Simulation()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            sim._schedule(sim.event(), delay=bad)


# -- kernel invariants ------------------------------------------------------


def test_now_monotonic_across_randomized_workload():
    # Property test: whatever mix of timeouts, bare delays, resource
    # waits and child processes runs, the clock never moves backwards
    # and events are observed in non-decreasing time order.
    rng = random.Random(20160901)
    sim = Simulation()
    resource = Resource(sim, capacity=2)
    observed = []

    def child(delay):
        yield delay
        return delay

    def worker(seed):
        r = random.Random(seed)
        for _ in range(r.randint(3, 12)):
            before = sim.now
            roll = r.random()
            if roll < 0.35:
                yield r.uniform(0.0, 2.0)          # bare delay
            elif roll < 0.6:
                yield sim.timeout(r.uniform(0.0, 1.0))
            elif roll < 0.85:
                grant = resource.request()
                yield grant
                yield r.uniform(0.0, 0.3)
                resource.release(grant)
            else:
                yield sim.process(child(r.uniform(0.0, 0.5)))
            assert sim.now >= before
            observed.append(sim.now)

    for _ in range(25):
        sim.process(worker(rng.randrange(2**31)))
    sim.run()
    assert len(observed) > 100
    assert all(b >= a for a, b in zip(observed, observed[1:]))


def test_resource_fifo_grant_order():
    # Grants must be served strictly in arrival order, regardless of
    # how the waiters were spawned.
    rng = random.Random(7)
    sim = Simulation()
    resource = Resource(sim, capacity=1)
    arrivals = {idx: rng.uniform(0.0, 5.0) for idx in range(12)}
    order = []

    def worker(idx):
        yield arrivals[idx]
        grant = resource.request()
        yield grant
        order.append(idx)
        yield 0.9   # hold long enough that a queue builds up
        resource.release(grant)

    spawn = list(arrivals)
    rng.shuffle(spawn)
    for idx in spawn:
        sim.process(worker(idx))
    sim.run()
    assert order == sorted(arrivals, key=arrivals.__getitem__)
