"""Equivalence of the lean YARN heartbeat round with the code it replaced.

The scheduler's grant pass, the heartbeat jitter draw and the in-place
``Request`` grant were rewritten for host speed.  Each must stay exact:
the previous implementations are kept here, and only here, as oracles.
"""

import random

import pytest

from repro.cluster import hadoop_cluster
from repro.hardware import DELL_R620, EDISON
from repro.mapreduce import YarnScheduler, default_config
from repro.mapreduce.yarn import ContainerGrant
from repro.sim import Interrupt, Resource, Simulation, heartbeat_jitter
from repro.sim.kernel import Event
from repro.sim.resources import Request
from repro.trace import Tracer


# -- oracles: the previous implementations ------------------------------------

def old_try_grant(yarn, mem_mb, avoid=()):
    """The list-building ``YarnScheduler._try_grant``."""
    candidates = [name for name, nm in yarn.nodes.items()
                  if nm.can_fit(mem_mb)]
    if avoid:
        candidates = [n for n in candidates if n not in avoid]
    if not candidates:
        return None
    name = max(candidates, key=lambda n: yarn.nodes[n].free_mem_mb)
    yarn.nodes[name].reserve(mem_mb)
    return ContainerGrant(node=name, mem_mb=mem_mb)


def old_allocate(yarn, mem_mb, max_heartbeats=None, avoid=()):
    """The round that re-read every attribute, drew via ``uniform`` and
    ran every master burst through ``Cpu.execute``."""
    requested_at = yarn.sim.now
    heartbeats = 0
    while True:
        if max_heartbeats is not None and heartbeats >= max_heartbeats:
            return None
        yield yarn.rng.uniform(0.3, 1.0) * yarn.config.heartbeat_s
        if yarn.master is not None:
            yield from yarn.master.cpu.execute(
                yarn.RM_MI_PER_ROUND * yarn._master_penalty())
        grant = old_try_grant(yarn, mem_mb, avoid)
        if grant is not None:
            if yarn.sim.trace is not None:
                yarn.sim.trace.complete(
                    "container.wait", requested_at, category="yarn",
                    node=grant.node, mem_mb=grant.mem_mb, local=False,
                    heartbeats=heartbeats)
            return grant
        heartbeats += 1


class OldRouteRequest(Request):
    """A ``Request`` granted through ``Event.succeed``, as before."""

    __slots__ = ()

    def __init__(self, resource):
        Event.__init__(self, resource.sim)
        self.resource = resource
        self._in_queue = False
        self._enqueued_at = None
        self._granted_at = None
        sim = resource.sim
        if sim.trace is not None:
            self._enqueued_at = sim._now
        users = resource.users
        if not resource._queued and len(users) < resource.capacity:
            now = sim._now
            resource._busy_integral += len(users) * (
                now - resource._last_change)
            resource._last_change = now
            users[self] = None
            if sim.trace is not None:
                self._granted_at = now
            self.succeed(resource)
            return
        resource._enqueue(self)


# -- _try_grant -----------------------------------------------------------------

def _twin_schedulers(slaves):
    sim = Simulation()
    cluster = hadoop_cluster(sim, "edison", slaves)
    config = default_config("edison")
    servers = cluster.metered_servers
    return (YarnScheduler(sim, servers, config, random.Random(1)),
            YarnScheduler(sim, servers, config, random.Random(1)))


def _state(yarn):
    return [(n, nm.down, nm.free_mem_mb) for n, nm in yarn.nodes.items()]


def test_try_grant_matches_list_based_version():
    rng = random.Random(20161017)
    old, new = _twin_schedulers(slaves=5)
    names = list(old.nodes)
    pool = names + ["ghost-a", "ghost-b"]
    outcomes = set()
    for _ in range(3000):
        for name in names:
            down = rng.random() < 0.2
            # Few distinct levels, so ties between candidates are common.
            free = rng.choice((0, 150, 150, 300, 450, 600))
            for yarn in (old, new):
                yarn.nodes[name].down = down
                yarn.nodes[name].free_mem_mb = free
        avoid_names = rng.sample(pool, rng.randrange(3))
        avoid = rng.choice((tuple, set, list))(avoid_names)
        mem_mb = rng.choice((150, 300))
        expect = old_try_grant(old, mem_mb, avoid)
        got = new._try_grant(mem_mb, avoid)
        assert got == expect, (avoid, mem_mb)
        assert _state(new) == _state(old)
        outcomes.add(got is None)
    # Both branches were exercised: a grant and no grant.
    assert outcomes == {True, False}


def test_try_grant_skips_avoided_nodes():
    old, new = _twin_schedulers(slaves=3)
    first, second, third = list(new.nodes)
    # With the first node full, the grant skips the avoided second one.
    for yarn in (old, new):
        yarn.nodes[first].free_mem_mb = 0
    got = new._try_grant(150, avoid={second})
    assert got == old_try_grant(old, 150, {second})
    assert got.node == third


def test_fit_bound_follows_every_write():
    # One field at a time, and through the scheduler's own paths, so a
    # write that skips the bound shows as a refused grant.
    rng = random.Random(20161018)
    old, new = _twin_schedulers(slaves=4)
    names = list(old.nodes)
    granted = []
    for _ in range(3000):
        name = rng.choice(names)
        op = rng.randrange(5)
        free = rng.choice((0, 150, 300, 450, 600))
        for yarn in (old, new):
            nm = yarn.nodes[name]
            if op == 0:
                nm.down = not nm.down
            elif op == 1:
                nm.free_mem_mb = free
            elif op == 2:
                yarn.mark_node_down(name)
            elif op == 3:
                yarn.mark_node_up(name)
        if op == 4 and granted:
            grant = granted.pop(rng.randrange(len(granted)))
            for yarn in (old, new):
                if grant.mem_mb <= (yarn.nodes[grant.node].total_mem_mb
                                    - yarn.nodes[grant.node].free_mem_mb):
                    yarn.release(grant)
        mem_mb = rng.choice((150, 300, 450))
        expect = old_try_grant(old, mem_mb)
        assert new._try_grant(mem_mb) == expect
        assert _state(new) == _state(old)
        if expect is not None:
            granted.append(expect)


def _bound_of(yarn):
    """The fit bound recomputed from scratch."""
    return max((nm.free_mem_mb for nm in yarn.nodes.values()
                if not nm.down), default=float("-inf"))


def test_fit_bound_is_exact_through_allocates_gate():
    # The same write soup, but each grant is asked as ``allocate`` asks
    # it: ``_try_grant`` only within the bound.  A write that leaves the
    # bound stale-low shows as a refused grant, one that leaves it
    # stale-high as a wrong ``mb``.
    rng = random.Random(20161019)
    old, new = _twin_schedulers(slaves=4)
    names = list(old.nodes)
    granted = []
    gated = set()
    for _ in range(3000):
        name = rng.choice(names)
        op = rng.randrange(5)
        free = rng.choice((0, 150, 300, 450, 600))
        for yarn in (old, new):
            nm = yarn.nodes[name]
            if op == 0:
                nm.down = not nm.down
            elif op == 1:
                nm.free_mem_mb = free
            elif op == 2:
                yarn.mark_node_down(name)
            elif op == 3:
                yarn.mark_node_up(name)
        if op == 4 and granted:
            grant = granted.pop(rng.randrange(len(granted)))
            for yarn in (old, new):
                if grant.mem_mb <= (yarn.nodes[grant.node].total_mem_mb
                                    - yarn.nodes[grant.node].free_mem_mb):
                    yarn.release(grant)
        assert new._fit.mb == _bound_of(new)
        mem_mb = rng.choice((150, 300, 450))
        expect = old_try_grant(old, mem_mb)
        fits = mem_mb <= new._fit.mb
        gated.add(fits)
        assert (new._try_grant(mem_mb) if fits else None) == expect
        assert new._fit.mb == _bound_of(new)
        assert _state(new) == _state(old)
        if expect is not None:
            granted.append(expect)
    # Both sides of the gate were taken.
    assert gated == {True, False}


def test_full_cluster_round_skips_the_scan(monkeypatch):
    """A round whose request fits nowhere makes no ``_try_grant`` call."""
    _, yarn = _twin_schedulers(slaves=3)
    first, second, third = yarn.nodes.values()
    first.free_mem_mb = 100
    second.free_mem_mb = 0
    third.mark_down()          # a down node's free memory never counts
    calls = []
    monkeypatch.setattr(yarn, "_try_grant",
                        lambda *args: calls.append(args))
    results = []

    def request(mem_mb, avoid):
        results.append((yield from yarn.allocate(mem_mb, 4, avoid)))

    yarn.sim.process(request(150, ()))
    yarn.sim.process(request(101, {"x"}))
    yarn.sim.run()
    assert results == [None, None]
    assert calls == []
    # Within the bound the round asks, once per round.
    yarn.sim.process(request(100, ()))
    yarn.sim.run()
    assert calls == [(100, ())] * 4


# -- heartbeat_jitter ---------------------------------------------------------

@pytest.mark.parametrize("low,high", [(0.3, 1.0), (0.0, 1.0), (0.5, 0.5),
                                      (0.1, 2.5), (0.0, 0.0)])
def test_heartbeat_jitter_equals_uniform_draw(low, high):
    for base_s in (1.0, 0.37, 3.0):
        ours = random.Random(7)
        theirs = random.Random(7)
        wait = heartbeat_jitter(ours, base_s, low, high)
        for _ in range(10_000):
            assert wait() == theirs.uniform(low, high) * base_s
        assert ours.getstate() == theirs.getstate()


# -- full allocation round --------------------------------------------------------

def _allocation_run(allocate_with, master_spec=EDISON, traced=False,
                    interrupt=False, pstate=0):
    """60 contending requests; with ``interrupt``, one request first runs
    alone and is interrupted while its master burst is in the calendar."""
    tracer = Tracer() if traced else None
    sim = Simulation(trace=tracer)
    cluster = hadoop_cluster(sim, "edison", 3, master_spec=master_spec)
    yarn = YarnScheduler(sim, cluster.metered_servers,
                         default_config("edison"), random.Random(11),
                         master=cluster.servers["master"])
    yarn.master.cpu.set_pstate(pstate)
    vcores = yarn.master.cpu.vcores
    log = []

    def task(tag, max_heartbeats):
        if interrupt:
            yield 30.0          # after the victim's round
        grant = yield from allocate_with(yarn, 150, max_heartbeats, ())
        log.append((sim.now, tag, grant))
        if grant is not None:
            yield 20.0 + tag % 3
            yarn.release(grant)

    def victim():
        try:
            yield from allocate_with(yarn, 150, None, ())
        except Interrupt:
            log.append((sim.now, "interrupted", len(vcores.users),
                        vcores.busy_time()))

    def interrupter(target):
        # Polls on a grid finer than a Dell round's burst, so the burst's
        # end is never the next pop and sits in the calendar.
        while not vcores.users:
            yield 0.0005
        log.append((sim.now, "holding", len(vcores.users)))
        target.interrupt()

    if interrupt:
        sim.process(interrupter(sim.process(victim())))
    # The capped requests give up while the cluster is full.
    for tag in range(60):
        sim.process(task(tag, 2 if tag % 5 == 0 else None))
    sim.run()
    trace = list(tracer.log) if traced else None
    return (log, sim.calendar_stats(), yarn.rng.getstate(), _state(yarn),
            vcores.busy_time(), trace)


def _new_allocate(yarn, *args):
    return yarn.allocate(*args)


def test_allocate_matches_previous_round():
    # An Edison master pays the paging penalty and queues the rounds
    # on its two vcores, so rounds also take the Cpu.execute fallback.
    assert _allocation_run(_new_allocate) == _allocation_run(old_allocate)


@pytest.mark.parametrize("traced,pstate", [(False, 0), (True, 0),
                                           (False, 3)])
def test_allocate_on_dell_master_matches_previous_round(traced, pstate):
    # A Dell master's rounds hold its vCPU in place; a down-clocked one
    # stretches each burst by the same rate Cpu.execute applies.
    ours = _allocation_run(_new_allocate, DELL_R620, traced, pstate=pstate)
    assert ours == _allocation_run(old_allocate, DELL_R620, traced,
                                   pstate=pstate)
    if traced:
        names = {event.name for event in ours[5]}
        assert {"master.cpu.vcores.hold", "container.wait"} <= names


def test_allocate_interrupted_mid_burst_matches_previous_round():
    ours = _allocation_run(_new_allocate, DELL_R620, interrupt=True)
    assert ours == _allocation_run(old_allocate, DELL_R620, interrupt=True)
    log = ours[0]
    assert log[0][1:] == ("holding", 1)
    # The interrupt released the held vCPU.
    assert log[1][1:3] == ("interrupted", 0)
    assert log[1][0] == log[0][0]


def test_uncontended_rounds_build_no_request(monkeypatch):
    built = []
    init = Request.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Request, "__init__", counting)
    sim = Simulation()
    cluster = hadoop_cluster(sim, "edison", 1, master_spec=DELL_R620)
    yarn = YarnScheduler(sim, cluster.metered_servers,
                         default_config("edison"), random.Random(3),
                         master=cluster.servers["master"])
    next(iter(yarn.nodes.values())).free_mem_mb = 0   # never grants
    sim.run(until=sim.process(yarn.allocate(150, max_heartbeats=50)))
    assert built == []
    assert sim.calendar_stats()["scheduled"] == 50 * 3 + 2


def test_allocation_round_costs_three_events():
    sim = Simulation()
    cluster = hadoop_cluster(sim, "edison", 1)
    yarn = YarnScheduler(sim, cluster.metered_servers,
                         default_config("edison"), random.Random(3),
                         master=cluster.servers["master"])
    next(iter(yarn.nodes.values())).free_mem_mb = 0   # never grants
    sim.run(until=sim.process(yarn.allocate(150, max_heartbeats=7)))
    # Heartbeat wait, master vCPU grant and CPU burst per round, plus
    # the process's start and end.
    assert sim.calendar_stats()["scheduled"] == 7 * 3 + 2


# -- in-place Request grant ---------------------------------------------------------

def _request_run(make_request, traced):
    tracer = Tracer() if traced else None
    sim = Simulation(trace=tracer)
    res = Resource(sim, capacity=2, name="slots")
    rng = random.Random(4242)
    log = []

    def user(tag):
        for _ in range(12):
            yield rng.choice((0, 0, 0.5, 1.0))
            req = make_request(res)
            log.append((sim.now, tag, "ask", req.triggered))
            if rng.random() < 0.1 and not req.triggered:
                res.release(req)          # withdraw while queued
                log.append((sim.now, tag, "withdrew"))
                continue
            yield req
            log.append((sim.now, tag, "got", res.count, res.queue_length))
            yield rng.choice((0, 0.5, 1.0))
            res.release(req)

    def ticker():
        # Plain same-time events interleave with the grants.
        for _ in range(20):
            yield sim.timeout(0.5)
            log.append((sim.now, "tick"))

    for tag in range(5):
        sim.process(user(tag))
    sim.process(ticker())
    sim.run()
    trace = list(tracer.log) if traced else None
    return log, sim.calendar_stats(), res.busy_time(), trace


@pytest.mark.parametrize("traced", [False, True])
def test_in_place_request_grant_matches_succeed_route(traced):
    ours = _request_run(Request, traced)
    theirs = _request_run(OldRouteRequest, traced)
    assert ours == theirs
    if traced:
        names = {event.name for event in ours[3]}
        assert {"slots.hold", "slots.wait"} <= names


@pytest.mark.parametrize("traced", [False, True])
def test_in_place_request_grant_keeps_calendar_counters(traced):
    def burst(make_request):
        sim = Simulation(trace=Tracer() if traced else None)
        res = Resource(sim, capacity=3)
        requests = [make_request(res) for _ in range(4)]
        stats = sim.calendar_stats()
        return ([r.triggered for r in requests], stats,
                [(r._enqueued_at, r._granted_at) for r in requests])

    assert burst(Request) == burst(OldRouteRequest)
    assert burst(Request)[1]["heap_peak"] == 3
