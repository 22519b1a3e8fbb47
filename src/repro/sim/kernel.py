"""A compact, from-scratch discrete-event simulation (DES) kernel.

The kernel follows the classic event-calendar design: a binary heap of
``(time, priority, sequence, event)`` entries is drained in order, and each
popped event runs its callbacks.  Simulated entities are *processes* —
plain Python generators that ``yield`` events (timeouts, resource requests,
other processes) and are resumed when the yielded event fires.

A process may also yield a bare ``float``/``int`` delay — shorthand for
``Timeout(sim, delay)`` with identical semantics and ordering, but
object-free: the calendar entry carries the process itself, so the hot
paths (network hops, CPU bursts, device time) allocate no Event at all.
Use a real :class:`Timeout` when the wait must be cancellable or shared.

Tail handoff: a resume is in the calendar's *tail* when it is the drain
loop's last action before the next pop, i.e. the wake of a bare delay
or of an event with exactly one callback.  There a process whose next
wake would provably be that pop continues in place: a bare delay ``d``
with an empty heap or ``heap[0][0] > now + d``, and an uncontended
slot grant with no entry at ``<= now`` (``Resource.hold_in_place``,
which ``Request(resource, in_place=True)`` calls).
Each consumes its sequence number, counts toward the heap peak as if
pushed, and sets the clock as the pop would, so every pop order, float,
``calendar_stats()`` field and trace row is unchanged.  A resume nested
in a callback run by :meth:`Event.add_callback`, or run among several
callbacks, is never in the tail.

No reference cycles: a process drops its bound ``_resume`` when its
generator ends, and a cancelled :class:`Timeout` drops its callbacks,
so a finished process, and the calls it settled, are freed by
reference counting, not by the cyclic collector
(``tests/test_no_cycles.py`` is the ratchet).  A process that ends by
raising keeps its exception without ``_resume``'s own traceback frame,
which would hold the process.

The design is intentionally close to the well-known SimPy API so the rest
of the codebase reads naturally to anyone who has simulated systems
before, but it is implemented here from scratch and trimmed to exactly
what the reproduction needs: events, timeouts, processes, interrupts and
``AnyOf``/``AllOf`` conditions.

Example
-------
>>> sim = Simulation()
>>> def hello(sim, log):
...     yield sim.timeout(5.0)
...     log.append(sim.now)
>>> log = []
>>> _ = sim.process(hello(sim, log))
>>> sim.run()
>>> log
[5.0]
"""

from __future__ import annotations

import heapq
from heapq import heappush
from itertools import count
from math import isfinite
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from .errors import Interrupt, SimulationError, StopSimulation

#: Priority used for ordinary events.
NORMAL = 1
#: Priority used for events that must fire before ordinary ones at the
#: same timestamp (used by the kernel when resuming interrupted processes).
URGENT = 0

# Sentinel distinguishing "no value yet" from an event value of ``None``.
_PENDING = object()

#: Fresh events start with this shared immutable tuple instead of a new
#: list: most events collect at most one callback, and the empty-list
#: allocation (plus its GC tracking) is pure overhead for the hundreds
#: of thousands of events a sweep creates.  The first real callback
#: swaps in a list; ``callbacks is None`` still means "processed".
_NO_CALLBACKS = ()


class Event:
    """A happening that processes can wait on.

    An event starts *pending*, becomes *triggered* once scheduled with a
    value (or an exception), and *processed* after its callbacks ran.

    Events are the unit the hot loop allocates by the hundred thousand,
    so the whole hierarchy uses ``__slots__``: no per-instance dict, and
    the flag fields (``_defused``, ``_cancelled``) are plain attributes
    the kernel can read without ``getattr`` fallbacks.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused",
                 "_cancelled")

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = \
            _NO_CALLBACKS
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or will be) scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only valid once triggered)."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # _schedule inlined: succeed() fires once per grant/completion
        # on every hot path, always at the current time.
        sim = self.sim
        heap = sim._heap
        heappush(heap, (sim._now, NORMAL, next(sim._seq), self))
        if len(heap) > sim._heap_peak:
            sim._heap_peak = len(heap)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._schedule(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed."""
        callbacks = self.callbacks
        if callbacks is None:
            # Already processed: run immediately so late waiters still
            # wake.  A resume nested here is not in the calendar's tail.
            sim = self.sim
            tail, sim._tail = sim._tail, False
            callback(self)
            sim._tail = tail
        elif callbacks is _NO_CALLBACKS:
            self.callbacks = [callback]
        else:
            callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


# The value delivered to a process resumed from a plain-number yield.
# A shared, inert, pre-processed Event: _resume() only reads ``_ok`` and
# ``_value`` from it, so one immutable instance serves every wake.
_DELAY_FIRED = Event.__new__(Event)
_DELAY_FIRED.sim = None
_DELAY_FIRED.callbacks = None
_DELAY_FIRED._value = None
_DELAY_FIRED._ok = True
_DELAY_FIRED._defused = True
_DELAY_FIRED._cancelled = False


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulation", delay: float, value: Any = None):
        # Timeouts are the single most-allocated object in any sweep;
        # this constructor inlines Event.__init__ and _schedule (one
        # C-level heappush instead of two method calls per event).
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        if delay and not isfinite(delay):
            # NaN eludes the < 0 test (every comparison is False) and
            # poisons heap ordering; infinities wedge the calendar.
            raise ValueError(f"non-finite delay {delay!r}")
        self.sim = sim
        self.callbacks = _NO_CALLBACKS
        self._ok = True
        self._value = value
        self._defused = False
        self._cancelled = False
        self.delay = delay
        heap = sim._heap
        heappush(heap, (sim._now + delay, NORMAL, next(sim._seq), self))
        if len(heap) > sim._heap_peak:
            sim._heap_peak = len(heap)

    def cancel(self) -> None:
        """Withdraw a pending timeout: its callbacks will never run.

        The calendar entry stays in the heap as a tombstone that the
        drain loop discards (and bulk-compacts when tombstones crowd
        the heap).  Racing patterns — client timeouts superseded by a
        response, bandwidth-share wake-ups superseded by reallocation —
        otherwise leave thousands of dead entries inflating every
        heap operation.  A timeout that already fired is left alone.
        """
        if self.callbacks is None or self._cancelled:
            return
        self._cancelled = True
        # The drain loop never reads a tombstone's callbacks; holding
        # them would keep a cycle with the AnyOf waiting on this timer.
        self.callbacks = _NO_CALLBACKS
        self.sim._cancel_scheduled()


class Process(Event):
    """A running generator; itself an event that fires on termination."""

    __slots__ = ("generator", "name", "_target", "_trace_started",
                 "_resume_cb", "_wait_token")

    def __init__(self, sim: "Simulation", generator: Generator,
                 name: Optional[str] = None):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # Wake token for bare-number delays (see _resume): bumped by
        # interrupt() so a superseded calendar entry is skipped at pop.
        self._wait_token = 0
        self._trace_started = sim._now if sim.trace is not None else None
        # One bound method for the process's whole life: every wait
        # otherwise materialises a fresh ``self._resume`` object.
        self._resume_cb = self._resume
        # Kick off the generator at the current time (initial event
        # built inline — one per process spawn on the hot path).
        init = Event(sim)
        init._ok = True
        init._value = None
        init.callbacks = [self._resume_cb]
        heap = sim._heap
        heappush(heap, (sim._now, URGENT, next(sim._seq), init))
        if len(heap) > sim._heap_peak:
            sim._heap_peak = len(heap)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"{self.name} already terminated")
        if self.sim._active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        wakeup = Event(self.sim)
        wakeup._ok = False
        wakeup._value = Interrupt(cause)
        wakeup._defused = True
        wakeup.callbacks = [self._resume_cb]
        self.sim._schedule(wakeup, priority=URGENT)
        # Invalidate any pending bare-delay calendar entry: the wake it
        # carries has been superseded by this interrupt.
        self._wait_token += 1
        # Detach from whatever it was waiting for.
        if self._target is not None and self._target.callbacks:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None

    def _resume(self, event: Event) -> None:
        # Runs once per event with a waiting process — the single
        # hottest function in any sweep; locals are cached accordingly.
        sim = self.sim
        generator = self.generator
        resume = self._resume_cb
        sim._active_process = self
        while True:
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    # Mark the failure as handled: it is being delivered.
                    event._defused = True
                    target = generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                sim._schedule(self)
                self._trace_end()
                # The bound method points back at self: drop it so a
                # returned process is freed by reference counting.
                self._resume_cb = None
                break
            except BaseException as exc:
                self._ok = False
                # The traceback's first frame is this one, which holds
                # self; the generator's frames follow it.
                self._value = exc.with_traceback(exc.__traceback__.tb_next)
                sim._schedule(self)
                self._trace_end()
                self._resume_cb = None
                break
            cls = type(target)
            if cls is float or cls is int:
                # Bare-number yield: an object-free timeout.  The
                # calendar entry carries the process and a wake token
                # directly — no Timeout, no callbacks list — which
                # matters because bare delays (network hops, CPU
                # bursts, device time) are the majority of all events
                # in a sweep.  Sequence numbers are consumed at the
                # same point a Timeout would consume them, so event
                # ordering is identical to ``yield Timeout(sim, d)``.
                if target < 0 or (target and not isfinite(target)):
                    exc = ValueError(
                        f"negative delay {target!r}" if target < 0
                        else f"non-finite delay {target!r}")
                    event = Event(sim)
                    event._ok = False
                    event._value = exc
                    continue
                heap = sim._heap
                at = sim._now + target
                if sim._tail and (not heap or heap[0][0] > at):
                    # Tail handoff: this wake is the next pop, so take
                    # it here, accounted as if pushed and popped.
                    next(sim._seq)
                    if len(heap) >= sim._heap_peak:
                        sim._heap_peak = len(heap) + 1
                    sim._now = at
                    event = _DELAY_FIRED
                    continue
                heappush(heap, (at, NORMAL, next(sim._seq), self,
                                self._wait_token))
                if len(heap) > sim._heap_peak:
                    sim._heap_peak = len(heap)
                self._target = None
                break
            if not isinstance(target, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}")
                event = Event(sim)
                event._ok = False
                event._value = exc
                continue
            if target.sim is not sim:
                exc = SimulationError("yielded event from a foreign simulation")
                event = Event(sim)
                event._ok = False
                event._value = exc
                continue
            callbacks = target.callbacks
            if callbacks is not None:
                # Pending or triggered-but-unprocessed: wait for it.
                if callbacks is _NO_CALLBACKS:
                    target.callbacks = [resume]
                else:
                    callbacks.append(resume)
                self._target = target
                break
            # Already processed: loop around and deliver immediately.
            event = target
        sim._active_process = None

    def _trace_end(self) -> None:
        trace = self.sim.trace
        started = self._trace_started
        if trace is None or started is None:
            return
        names = self.sim._process_span_names
        span = names.get(self.name)
        if span is None:
            span = names[self.name] = f"process:{self.name}"
        trace.complete(span, started, category="kernel", ok=bool(self._ok))


class Condition(Event):
    """Base for ``AnyOf``/``AllOf`` composite events."""

    __slots__ = ("events", "_unfired")

    def __init__(self, sim: "Simulation", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._unfired = len(self.events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("condition mixes simulations")
            event.add_callback(self._check)
        if not self.events:
            self.succeed({})

    def _collect(self) -> dict:
        # Only *processed* events count: a Timeout is born triggered but
        # has not happened until the calendar reaches it.
        return {e: e._value for e in self.events if e.processed and e._ok}

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(Condition):
    """Fires when the first of its sub-events fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self.succeed(self._collect())


class AllOf(Condition):
    """Fires when all of its sub-events have fired."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._unfired -= 1
        if self._unfired == 0:
            self.succeed(self._collect())


class Simulation:
    """The event calendar and clock.

    Parameters
    ----------
    start:
        Initial value of the simulated clock (seconds).
    trace:
        Optional :class:`repro.trace.Tracer`.  When given, the kernel
        (and every instrumented layer reaching it as ``sim.trace``)
        emits structured events: process lifecycle spans and
        event-calendar statistics.  ``None`` (the default) keeps every
        instrumented path at a single None-check — no events are
        created and simulation results are bit-identical.
    """

    def __init__(self, start: float = 0.0, trace: Optional[Any] = None):
        self._now = float(start)
        if not isfinite(self._now):
            raise ValueError(f"non-finite start time {start!r}")
        self._heap: list = []
        self._seq = count()
        self._active_process: Optional[Process] = None
        # The tail flag (see the module docstring): raised while run()
        # drains, lowered around several callbacks and nested resumes.
        self._tail = False
        self.trace = trace
        #: Attached fault injector (set by repro.faults.FaultInjector).
        #: ``None`` keeps every fault-aware path at a single None-check,
        #: exactly like ``trace`` — untouched runs stay bit-identical.
        self.faults = None
        self._heap_peak = 0
        # Cancelled-timeout tombstones: live count still in the heap,
        # and the total discarded (popped or compacted away) so
        # calendar_stats can report true processed-event counts.
        self._ncancelled = 0
        self._dropped = 0
        # Process name -> its "process:<name>" span name, built once per
        # distinct name so the trace's name column shares one string.
        self._process_span_names: Dict[str, str] = {}
        if trace is not None:
            trace.bind(self)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event factories ------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Register ``generator`` as a new process starting now."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all of ``events`` fired."""
        return AllOf(self, events)

    # -- scheduling & execution -----------------------------------------

    def _schedule(self, event: Event, priority: int = NORMAL,
                  delay: float = 0.0) -> None:
        if delay and not isfinite(delay):
            # NaN delays poison heap ordering (every comparison is
            # False) and visibly run the clock backwards; infinities
            # wedge the calendar.  Refuse them at the single choke
            # point every scheduling path funnels through.
            raise ValueError(f"non-finite delay {delay!r}")
        heap = self._heap
        heapq.heappush(heap, (self._now + delay, priority,
                              next(self._seq), event))
        if len(heap) > self._heap_peak:
            self._heap_peak = len(heap)

    def _cancel_scheduled(self) -> None:
        """Account one new tombstone; compact when they crowd the heap.

        Compaction is amortised O(heap): it only triggers once
        tombstones are both numerous (> 512) and the majority of the
        heap, so each discarded entry pays O(1) on average and the
        heap stays near its live size under cancel-heavy workloads.
        """
        self._ncancelled += 1
        heap = self._heap
        if self._ncancelled > 512 and self._ncancelled * 2 > len(heap):
            live = [entry for entry in heap if not entry[3]._cancelled]
            self._dropped += len(heap) - len(live)
            # In-place: run()'s drain loop holds an alias to this list.
            heap[:] = live
            heapq.heapify(heap)
            self._ncancelled = 0

    def run(self, until: Optional[Any] = None) -> Any:
        """Run until the schedule drains, a time is reached, or an event fires.

        ``until`` may be ``None`` (drain everything), a number (stop when
        the clock reaches it), or an :class:`Event` (stop when it fires and
        return its value; a failed event raises its exception, whether it
        fails during the run or had already failed before it).
        """
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    # Already processed: a failure raises, exactly as
                    # _stop_callback does when it fails during the run.
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
                self._schedule(stop_event, priority=URGENT, delay=at - self._now)
                stop_event.callbacks = [self._stop_callback]
        # The one drain loop: whole-cluster sweeps spend their time
        # here, so it is kept free of per-event method calls.
        heap = self._heap
        pop = heapq.heappop
        self._tail = True
        try:
            while heap:
                entry = pop(heap)
                self._now = entry[0]
                event = entry[3]
                if len(entry) == 5:
                    # Bare-delay wake (see Process._resume): resume the
                    # process directly — no Event, no callbacks — unless
                    # an interrupt superseded this entry's wake token.
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
                if len(callbacks) == 1:
                    callbacks[0](event)
                elif callbacks:
                    # None of several callbacks is in the tail.
                    self._tail = False
                    for callback in callbacks:
                        callback(event)
                    self._tail = True
                if not event._ok and not event._defused:
                    # An un-waited-for failure must not pass silently.
                    raise event._value
        except StopSimulation as stop:
            return stop.value
        finally:
            self._tail = False
            if self.trace is not None:
                self.trace.instant("calendar", category="kernel",
                                   **self.calendar_stats())
        if stop_event is not None and not stop_event.triggered:
            raise SimulationError(
                "schedule drained before the until-event fired")
        return None

    def calendar_stats(self) -> dict:
        """Event-calendar counters, available traced or untraced.

        ``scheduled`` is read back from the sequence counter (every
        heap entry consumed one tie-break number), so the hot scheduling
        path carries no dedicated accounting; ``processed`` is what left
        the heap and ran callbacks (cancelled-timeout tombstones are
        reported separately as ``dropped``).  All exact, not sampled.
        """
        scheduled = next(self._seq)
        self._seq = count(scheduled)
        return {"scheduled": scheduled,
                "processed": scheduled - len(self._heap) - self._dropped,
                "dropped": self._dropped,
                "heap_peak": self._heap_peak,
                "heap_now": len(self._heap)}

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        raise event._value
