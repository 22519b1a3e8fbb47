"""Equivalence of the calendar's tail handoff with the drain it replaced.

A process whose next wake is provably the calendar's next pop now
continues inside its own resume, and an ``in_place`` ``Request`` hands
out an uncontended grant already processed (see ``repro.sim.kernel``).  The previous drain
loop, which takes every wake and every grant through the heap, is kept
here, and only here, as the oracle: seeded soups of processes must give
the same log, calendar counters, busy integrals and trace rows under
both, traced and untraced.
"""

import heapq
import random
from math import isfinite

import pytest

from repro.hardware import EDISON, Cpu, Storage
from repro.sim import Interrupt, Resource, Simulation, SimulationError
from repro.sim.errors import StopSimulation
from repro.sim.kernel import _DELAY_FIRED, URGENT, Event, Process
from repro.sim.resources import Request
from repro.trace import Tracer


# -- oracle: the drain loop before the tail handoff ---------------------------

class OldDrainSimulation(Simulation):
    """``run()`` as it was: every wake and every grant is popped.

    The tail flag is never raised, so ``Process._resume`` pushes every
    bare delay and every ``in_place`` grant goes through the heap.
    """

    def run(self, until=None):
        stop_event = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    if not stop_event._ok:
                        raise stop_event._value
                    return stop_event._value
                stop_event.add_callback(self._stop_callback)
            else:
                at = float(until)
                if not isfinite(at):
                    raise ValueError(f"non-finite until={until!r}")
                if at < self._now:
                    raise ValueError(
                        f"until={at} lies in the past (now={self._now})")
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                self._schedule(stop_event, priority=URGENT,
                               delay=at - self._now)
                stop_event.callbacks = [self._stop_callback]
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                entry = pop(heap)
                self._now = entry[0]
                event = entry[3]
                if len(entry) == 5:
                    if entry[4] == event._wait_token:
                        event._resume(_DELAY_FIRED)
                    else:
                        self._dropped += 1
                    continue
                if event._cancelled:
                    self._ncancelled -= 1
                    self._dropped += 1
                    continue
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except StopSimulation as stop:
            return stop.value
        finally:
            if self.trace is not None:
                self.trace.instant("calendar", category="kernel",
                                   **self.calendar_stats())
        if stop_event is not None and not stop_event.triggered:
            raise SimulationError(
                "schedule drained before the until-event fired")
        return None


@pytest.fixture
def resumes(monkeypatch):
    """Counts every ``Process._resume`` call of processes built after it."""
    calls = []
    resume = Process._resume

    def counting(self, event):
        calls.append(self.name)
        resume(self, event)

    monkeypatch.setattr(Process, "_resume", counting)
    return calls


# -- seeded soups ---------------------------------------------------------------

#: Delays on a coarse grid, so wakes, ticks, interrupts and ``until``
#: times collide at the same instant; zero delays are common.
_DELAYS = (0, 0, 0.0, 0.25, 0.5, 1, 1.0, 2.0)


def _soup(sim_cls, seed, traced, untils):
    tracer = Tracer() if traced else None
    sim = sim_cls(trace=tracer)
    rng = random.Random(seed)
    one = Resource(sim, capacity=1, name="one")
    many = Resource(sim, capacity=3, name="many")
    cpu = Cpu(sim, EDISON.cpu, name="cpu")
    disk = Storage(sim, EDISON.storage, name="disk")
    gate = [sim.event()]
    started = {}
    log = []

    def delay():
        return rng.choice(_DELAYS) if rng.random() < 0.9 else rng.random()

    def hold(res):
        grant = Request(res, in_place=True)
        try:
            if grant.callbacks is not None:
                yield grant
            log.append((sim.now, res.name, res.count, res.queue_length))
            yield delay()
        finally:
            res.release(grant)

    def step(kind):
        if kind == 0:
            yield delay()
        elif kind == 1:
            value = yield sim.timeout(delay(), value=kind)
            log.append((sim.now, "timeout", value))
        elif kind == 2:
            # A cancelled timeout leaves a tombstone at (or near) the head.
            sim.timeout(rng.choice((0, 0.25, 0.5))).cancel()
            yield delay()
        elif kind == 3:
            yield from cpu.execute(rng.choice((0, 30, 400, 1500)))
        elif kind == 4:
            yield from disk.read(rng.choice((0, 4096, 2e6)),
                                 rng.random() < 0.5)
        elif kind == 5:
            yield from hold(one)
        elif kind == 6:
            yield from hold(many)
        elif kind == 7:
            # The shared gate: two or more waiters make a
            # multi-callback event.
            value = yield gate[0]
            log.append((sim.now, "gate", value))
        else:
            fired = yield sim.any_of([sim.timeout(delay(), value="a"),
                                      sim.timeout(delay(), value="b")])
            log.append((sim.now, "any", sorted(fired.values())))

    def worker(tag):
        started[tag] = proc_of[tag]
        for n in range(rng.randrange(4, 30)):
            kind = rng.randrange(9)
            try:
                yield from step(kind)
            except Interrupt as exc:
                log.append((sim.now, tag, "interrupted", exc.cause))
                continue
            log.append((sim.now, tag, n, kind))
        return tag

    def ticker():
        for n in range(40):
            yield rng.choice((0.25, 0.5, 1.0))
            if rng.random() < 0.7:
                gate[0].succeed(n)
                gate[0] = sim.event()

    def interrupter():
        for n in range(25):
            yield rng.choice((0, 0.5, 1.0, 1.5))
            alive = [tag for tag, proc in sorted(started.items())
                     if proc.is_alive]
            if alive:
                victim = rng.choice(alive)
                started[victim].interrupt(("poke", n))
                log.append((sim.now, "interrupt", victim))

    proc_of = {tag: sim.process(worker(tag), name=f"w{tag}")
               for tag in range(8)}
    sim.process(ticker(), name="ticker")
    sim.process(interrupter(), name="interrupter")
    for until in untils:
        log.append(("run", until, sim.run(until=until), sim.now))
    trace = list(tracer.log) if traced else None
    return (log, sim.calendar_stats(), one.busy_time(), many.busy_time(),
            cpu.busy_vcore_seconds(), disk.channel.busy_time(),
            disk.bytes_read, trace)


#: Back-to-back runs, as the job day's settle step does, with ``until``
#: times on the delay grid so bare delays land exactly on them.
_RUNS = [(None,), (1.0, 2.5, 3.0, None), (0.5, 0.5, 4.0, 7.25, None)]


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_soup_matches_old_drain(seed, traced):
    untils = _RUNS[seed % len(_RUNS)]
    ours = _soup(Simulation, seed, traced, untils)
    theirs = _soup(OldDrainSimulation, seed, traced, untils)
    assert ours == theirs
    if traced:
        names = {event.name for event in ours[-1]}
        assert {"cpu.vcores.hold", "one.hold", "calendar"} <= names


def test_soup_takes_wakes_in_place(resumes):
    _soup(OldDrainSimulation, 3, False, (None,))
    old = len(resumes)
    resumes.clear()
    _soup(Simulation, 3, False, (None,))
    # Not a vacuous equivalence: the tail handoff took a share of wakes.
    assert len(resumes) < 0.8 * old


# -- the mechanism ----------------------------------------------------------------

def _bursts(sim_cls, n):
    sim = sim_cls()
    cpu = Cpu(sim, EDISON.cpu, name="cpu")

    def lone():
        for _ in range(n):
            yield from cpu.execute(250)

    sim.process(lone(), name="lone")
    sim.run()
    return sim.now, sim.calendar_stats(), cpu.busy_vcore_seconds()


def test_lone_cpu_bursts_resume_once(resumes):
    n = 200
    ours = _bursts(Simulation, n)
    assert resumes == ["lone"]
    resumes.clear()
    assert _bursts(OldDrainSimulation, n) == ours
    # Start, then one grant and one burst per round.
    assert len(resumes) == 1 + 2 * n
    assert ours[1]["scheduled"] == 2 + 2 * n


def test_bare_delay_on_until_stops_first():
    for sim_cls in (Simulation, OldDrainSimulation):
        sim = sim_cls()
        log = []

        def proc():
            yield 1.0
            log.append(sim.now)
            yield 2.0
            log.append(sim.now)

        sim.process(proc())
        sim.run(until=3.0)
        assert log == [1.0] and sim.now == 3.0
        sim.run()
        assert log == [1.0, 3.0]


def test_nested_resume_is_not_in_the_tail():
    def run(sim_cls):
        sim = sim_cls()
        log = []
        wake = sim.event()

        def sleeper():
            yield wake
            log.append(("sleeper", sim.now))
            yield 5.0
            log.append(("sleeper", sim.now))

        def driver():
            yield 1.0
            done = sim.event()
            done.succeed()
            yield done
            # Resume the sleeper nested inside an immediate callback.
            resume = wake.callbacks.pop()
            done.add_callback(resume)
            log.append(("driver", sim.now))
            yield 1.0
            log.append(("driver", sim.now))

        sim.process(sleeper())
        sim.process(driver())
        sim.run()
        return log, sim.calendar_stats()

    ours = run(Simulation)
    assert ours == run(OldDrainSimulation)
    assert ours[0] == [("sleeper", 1.0), ("driver", 1.0), ("driver", 2.0),
                       ("sleeper", 6.0)]


def test_in_place_request_under_contention_is_an_ordinary_one():
    sim = Simulation()
    res = Resource(sim, capacity=1)
    log = []

    def user(tag):
        grant = Request(res, in_place=True)
        log.append((tag, grant.processed))
        try:
            if grant.callbacks is not None:
                yield grant
            yield 1.0
        finally:
            res.release(grant)
        log.append((tag, sim.now))

    sim.process(user("a"))
    sim.process(user("b"))
    sim.run()
    # "a" starts with "b"'s start still at the head, so its grant goes
    # through the heap; "b" queues behind it.
    assert log == [("a", False), ("b", False), ("a", 1.0), ("b", 2.0)]


def test_in_place_wakes_count_toward_heap_peak():
    def run(sim_cls):
        sim = sim_cls()
        res = Resource(sim, capacity=2)
        peaks = []

        def proc():
            sim.timeout(50)
            sim.timeout(60)
            # The heap is at its peak: each wake taken in place counts.
            yield 1.0
            peaks.append(sim.calendar_stats()["heap_peak"])
            sim.timeout(70)
            grant = Request(res, in_place=True)
            if grant.callbacks is not None:
                yield grant
            peaks.append(sim.calendar_stats()["heap_peak"])
            res.release(grant)

        sim.process(proc())
        sim.run()
        return peaks, sim.calendar_stats()

    ours = run(Simulation)
    assert ours == run(OldDrainSimulation)
    assert ours[0] == [3, 4]


def test_in_place_request_outside_run_is_an_ordinary_one():
    sim = Simulation()
    res = Resource(sim, capacity=1)
    sim.timeout(1.0)
    sim.run(until=0.5)
    # run() cleared the tail on exit: this grant is left to the heap.
    grant = Request(res, in_place=True)
    assert not grant.processed and grant.triggered
    assert sim.calendar_stats()["heap_now"] == 2
