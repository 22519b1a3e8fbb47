"""Unit tests for Resource, Container and Store."""

import pytest

from repro.sim import Container, Resource, Simulation, SimulationError, Store


def test_resource_rejects_bad_capacity():
    sim = Simulation()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_grants_up_to_capacity():
    sim = Simulation()
    res = Resource(sim, capacity=2)
    granted = []

    def user(tag, hold):
        with res.request() as req:
            yield req
            granted.append((tag, sim.now))
            yield sim.timeout(hold)

    sim.process(user("a", 10))
    sim.process(user("b", 10))
    sim.process(user("c", 10))
    sim.run()
    assert granted == [("a", 0), ("b", 0), ("c", 10)]


def test_resource_fifo_queue_order():
    sim = Simulation()
    res = Resource(sim, capacity=1)
    order = []

    def user(tag):
        with res.request() as req:
            yield req
            order.append(tag)
            yield sim.timeout(1)

    for tag in range(6):
        sim.process(user(tag))
    sim.run()
    assert order == list(range(6))


def test_resource_release_without_grant_is_noop():
    sim = Simulation()
    res = Resource(sim, capacity=1)
    req = res.request()
    res.release(req)  # granted then released immediately: count back to 0
    assert res.count == 0


def test_resource_cancel_waiting_request():
    sim = Simulation()
    res = Resource(sim, capacity=1)
    first = res.request()
    second = res.request()
    assert res.queue_length == 1
    second.cancel()
    assert res.queue_length == 0
    res.release(first)
    assert res.count == 0


def test_cancel_granted_request_rejected():
    sim = Simulation()
    res = Resource(sim, capacity=1)
    req = res.request()
    with pytest.raises(SimulationError):
        req.cancel()


def test_resource_busy_time_integration():
    sim = Simulation()
    res = Resource(sim, capacity=2)

    def user(hold):
        with res.request() as req:
            yield req
            yield sim.timeout(hold)

    sim.process(user(10))
    sim.process(user(4))
    sim.run()
    # 2 slots busy for 4s, then 1 slot for 6s = 8 + 6 = 14 slot-seconds.
    assert res.busy_time() == pytest.approx(14.0)


def test_resource_utilization_window():
    sim = Simulation()
    res = Resource(sim, capacity=1)

    def user():
        with res.request() as req:
            yield req
            yield sim.timeout(5)

    sim.process(user())
    t0, busy0 = sim.now, res.busy_time()
    sim.run(until=10)
    elapsed = sim.now - t0
    assert (res.busy_time() - busy0) / (res.capacity * elapsed) \
        == pytest.approx(0.5)


def test_container_put_get_levels():
    sim = Simulation()
    box = Container(sim, capacity=100, init=50)
    box.put(25)
    box.get(70)
    sim.run()
    assert box.level == pytest.approx(5)


def test_container_get_blocks_until_stock():
    sim = Simulation()
    box = Container(sim, capacity=10, init=0)
    log = []

    def consumer():
        yield box.get(5)
        log.append(sim.now)

    def producer():
        yield sim.timeout(3)
        yield box.put(5)

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert log == [3]


def test_container_put_blocks_until_headroom():
    sim = Simulation()
    box = Container(sim, capacity=10, init=10)
    log = []

    def producer():
        yield box.put(4)
        log.append(sim.now)

    def consumer():
        yield sim.timeout(2)
        yield box.get(6)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert log == [2]


def test_container_invalid_args():
    sim = Simulation()
    with pytest.raises(ValueError):
        Container(sim, capacity=0)
    with pytest.raises(ValueError):
        Container(sim, capacity=5, init=9)
    box = Container(sim, capacity=5)
    with pytest.raises(ValueError):
        box.put(0)
    with pytest.raises(ValueError):
        box.get(-1)


@pytest.mark.parametrize("amount", [float("nan"), float("inf")])
def test_container_rejects_non_finite_amounts(amount):
    sim = Simulation()
    box = Container(sim, capacity=5)
    with pytest.raises(ValueError, match="put amount must be finite"):
        box.put(amount)
    with pytest.raises(ValueError, match="get amount must be finite"):
        box.get(amount)
    # Nothing was queued, so a valid put behind the rejected one fires.
    put = box.put(1.0)
    sim.run()
    assert put.processed
    assert box.level == 1.0
    assert not box._puts and not box._gets


@pytest.mark.parametrize("capacity", [float("nan"), float("inf")])
def test_container_rejects_non_finite_capacity(capacity):
    with pytest.raises(ValueError, match="capacity must be finite"):
        Container(Simulation(), capacity=capacity)


def test_store_fifo_order():
    sim = Simulation()
    store = Store(sim)
    got = []

    def producer():
        for item in "abc":
            yield store.put(item)
            yield sim.timeout(1)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((sim.now, item))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [(0, "a"), (1, "b"), (2, "c")]


def test_store_bounded_capacity_blocks_put():
    sim = Simulation()
    store = Store(sim, capacity=1)
    log = []

    def producer():
        yield store.put("x")
        yield store.put("y")
        log.append(sim.now)

    def consumer():
        yield sim.timeout(5)
        yield store.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert log == [5]


def test_store_len_tracks_items():
    sim = Simulation()
    store = Store(sim)
    store.put("a")
    store.put("b")
    sim.run()
    assert len(store) == 2


# -- Interrupt interactions (the guarantee Interrupt's docstring makes) --


def test_interrupt_queued_waiter_leaks_no_capacity():
    """Killing a process waiting in the queue must not consume a slot."""
    from repro.sim import Interrupt
    sim = Simulation()
    res = Resource(sim, capacity=1)
    granted = []

    def holder():
        with res.request() as req:
            yield req
            yield sim.timeout(10)

    def waiter():
        try:
            with res.request() as req:
                yield req
                granted.append("waiter")
                yield sim.timeout(1)
        except Interrupt:
            pass

    def late():
        with res.request() as req:
            yield req
            granted.append(("late", sim.now))
            yield sim.timeout(1)

    def killer(victim):
        yield sim.timeout(5)
        victim.interrupt(cause="chaos")

    sim.process(holder())
    victim = sim.process(waiter())
    sim.process(late())
    sim.process(killer(victim))
    sim.run()
    # The dead waiter never ran; the slot went straight to ``late``.
    assert granted == [("late", 10)]
    assert res.count == 0
    assert res.queue_length == 0


def test_interrupt_holder_mid_hold_frees_slot():
    """Killing the current holder returns its slot to the queue."""
    from repro.sim import Interrupt
    sim = Simulation()
    res = Resource(sim, capacity=1)
    granted = []

    def holder():
        try:
            with res.request() as req:
                yield req
                yield sim.timeout(100)
        except Interrupt:
            pass

    def waiter():
        with res.request() as req:
            yield req
            granted.append(sim.now)
            yield sim.timeout(1)

    def killer(victim):
        yield sim.timeout(3)
        victim.interrupt(cause="chaos")

    victim = sim.process(holder())
    sim.process(waiter())
    sim.process(killer(victim))
    sim.run()
    assert granted == [3]
    assert res.count == 0


def test_same_time_grant_then_interrupt_leaks_no_capacity():
    """Grant and interrupt landing at the same instant must not leak.

    At t=1 the holder releases — synchronously granting the queued
    request — and in the same timestep the killer interrupts the
    waiter before the grant is delivered.  The waiter's ``with`` block
    must still hand the slot back.
    """
    from repro.sim import Interrupt
    sim = Simulation()
    res = Resource(sim, capacity=1)
    granted = []

    def holder():
        with res.request() as req:
            yield req
            yield sim.timeout(1)

    def waiter():
        try:
            with res.request() as req:
                yield req
                granted.append("waiter")
                yield sim.timeout(5)
        except Interrupt:
            pass

    def killer(victim):
        yield sim.timeout(1)
        victim.interrupt(cause="race")

    def late():
        yield sim.timeout(2)
        with res.request() as req:
            yield req
            granted.append(("late", sim.now))

    sim.process(holder())          # timeout scheduled first: fires first
    victim = sim.process(waiter())
    sim.process(killer(victim))
    sim.process(late())
    sim.run()
    assert granted == [("late", 2)]
    assert res.count == 0
    assert res.queue_length == 0


def test_same_time_interrupt_then_grant_leaks_no_capacity():
    """The mirror ordering: interrupt delivered before the release."""
    from repro.sim import Interrupt
    sim = Simulation()
    res = Resource(sim, capacity=1)
    granted = []

    def killer(victim):
        yield sim.timeout(1)
        victim.interrupt(cause="race")

    def holder():
        with res.request() as req:
            yield req
            yield sim.timeout(1)

    def waiter():
        try:
            with res.request() as req:
                yield req
                granted.append("waiter")
                yield sim.timeout(5)
        except Interrupt:
            pass

    def late():
        yield sim.timeout(2)
        with res.request() as req:
            yield req
            granted.append(("late", sim.now))

    hold_proc = sim.process(holder())
    victim = sim.process(waiter())
    sim.process(killer(victim))    # URGENT interrupt beats the release
    sim.process(late())
    sim.run()
    assert hold_proc.is_alive is False
    assert granted == [("late", 2)]
    assert res.count == 0
    assert res.queue_length == 0
