"""Shared-resource primitives built on the DES kernel.

Three primitives cover everything the reproduction needs:

:class:`Resource`
    A fixed number of identical slots with a FIFO wait queue — used for
    CPU virtual cores, disk heads, connection slots and YARN containers.
    It also integrates busy time so utilisation can be sampled for the
    paper's resource-timeline figures.

:class:`Container`
    A continuous level with bounded capacity — used for memory
    occupancy accounting.

:class:`Store`
    A FIFO queue of Python objects — used for message queues between
    simulated services.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from math import isfinite
from typing import Any, Deque

from .errors import SimulationError
from .kernel import _NO_CALLBACKS, _PENDING, NORMAL, Event, Simulation


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager inside a process::

        with resource.request() as req:
            yield req
            ... hold the slot ...
        # released on exit

    A process that yields the request at once may pass ``in_place``:
    in the calendar's tail (see :mod:`repro.sim.kernel`), an uncontended
    grant whose entry would be the next pop then comes back already
    processed, and the process skips its ``yield``.
    """

    __slots__ = ("resource", "_in_queue", "_enqueued_at", "_granted_at")

    def __init__(self, resource: "Resource", in_place: bool = False):
        # Event.__init__ inlined: one Request per CPU burst, disk op
        # and connection slot makes this a hot allocation site.
        sim = resource.sim
        self.sim = sim
        self.callbacks = _NO_CALLBACKS
        self._defused = False
        self._cancelled = False
        self.resource = resource
        self._in_queue = False
        self._granted_at = None
        now = sim._now
        traced = sim.trace is not None
        self._enqueued_at = now if traced else None
        if in_place and resource.hold_in_place(self):
            # Tail handoff: granted and processed here, as if popped.
            self.callbacks = None
            self._ok = True
            self._value = resource
            return
        users = resource.users
        if resource._queued or len(users) >= resource.capacity:
            self._value = _PENDING
            self._ok = None
            resource._enqueue(self)
            return
        # Uncontended outside the tail: the grant happens here, with
        # succeed()'s calendar entry at the current time inlined.
        resource._accumulate()
        users[self] = None
        if traced:
            self._granted_at = now
        self._ok = True
        self._value = resource
        heap = sim._heap
        heappush(heap, (now, NORMAL, next(sim._seq), self))
        if len(heap) > sim._heap_peak:
            sim._heap_peak = len(heap)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a request that has not been granted yet."""
        self.resource._cancel(self)


class Holder:
    """A slot key that is no event, for :meth:`Resource.hold_in_place`.

    It carries the two fields :meth:`Resource.release` reads of a
    :class:`Request`, so one key can hold and release a slot again and
    again without an allocation per grant.
    """

    __slots__ = ("_in_queue", "_granted_at")

    def __init__(self):
        self._in_queue = False
        self._granted_at = None


class Resource:
    """``capacity`` identical slots with a FIFO wait queue.

    Busy-time is integrated continuously, which lets monitors compute
    exact utilisation over arbitrary windows (needed for the CPU/memory
    utilisation curves of Figures 12-17).
    """

    def __init__(self, sim: Simulation, capacity: int = 1,
                 name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = int(capacity)
        self.name = name
        # Span names built once, not per traced release/grant.
        self._hold_span = f"{name}.hold"
        self._wait_span = f"{name}.wait"
        # Holders as an insertion-ordered dict: O(1) membership and
        # removal where a list pays an O(n) scan per release, while
        # iteration order still matches grant order.
        self.users: dict = {}
        # The wait queue stays a deque for FIFO grants; cancellations
        # flip ``request._in_queue`` and leave a tombstone that the
        # grant loop discards, so release/cancel are O(1) too.
        self.queue: Deque[Request] = deque()
        self._queued = 0
        self._busy_integral = 0.0
        self._last_change = sim.now

    # -- accounting ------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return self._queued

    def _accumulate(self) -> None:
        now = self.sim._now
        self._busy_integral += len(self.users) * (now - self._last_change)
        self._last_change = now

    def busy_time(self) -> float:
        """Total slot-seconds consumed so far."""
        self._accumulate()
        return self._busy_integral

    # -- request/release ---------------------------------------------------

    def request(self) -> Request:
        """Claim one slot; the returned event fires when granted."""
        return Request(self)

    def hold_in_place(self, key) -> bool:
        """Grant ``key`` a slot here if the grant would be the next pop.

        The calendar's tail handoff (see :mod:`repro.sim.kernel`) for a
        grant: with the caller's resume in the tail, nobody queued, a
        free slot and no calendar entry at ``<= now``, the grant's entry
        would be the next pop.  It is taken at once, with a grant's
        busy-time accounting and its sequence number and heap-peak
        count as if pushed, and True is returned.  Otherwise nothing
        changes and False is returned.  ``key`` (a :class:`Request` or
        a :class:`Holder`) keeps the slot until :meth:`release`.
        """
        sim = self.sim
        heap = sim._heap
        now = sim._now
        users = self.users
        if (not sim._tail or self._queued or len(users) >= self.capacity
                or (heap and heap[0][0] <= now)):
            return False
        # _accumulate() inlined: this runs once per in-place CPU burst,
        # disk op and YARN heartbeat round.
        self._busy_integral += len(users) * (now - self._last_change)
        self._last_change = now
        users[key] = None
        if sim.trace is not None:
            key._granted_at = now
        next(sim._seq)
        if len(heap) >= sim._heap_peak:
            sim._heap_peak = len(heap) + 1
        return True

    def release(self, request) -> None:
        """Return the slot held by ``request`` (no-op if never granted).

        ``request`` is a :class:`Request` or a :class:`Holder`.
        """
        if request._in_queue:
            self._cancel(request)
            return
        users = self.users
        if request not in users:
            return
        # _accumulate() inlined — release runs once per CPU burst,
        # disk op and connection.
        now = self.sim._now
        self._busy_integral += len(users) * (now - self._last_change)
        self._last_change = now
        del users[request]
        trace = self.sim.trace
        if trace is not None:
            granted = request._granted_at
            if granted is not None:
                trace.complete(self._hold_span, granted,
                               category="resource")
        if self._queued:
            self._grant_waiters()

    def _enqueue(self, request: Request) -> None:
        """Queue a request that :class:`Request` could not grant at once."""
        request._in_queue = True
        self.queue.append(request)
        self._queued += 1
        self._grant_waiters()

    def _cancel(self, request: Request) -> None:
        if not request._in_queue:
            raise SimulationError("cannot cancel a granted request")
        request._in_queue = False
        self._queued -= 1
        # Tombstones normally fall out at grant time; compact if a
        # cancel-heavy burst leaves the deque mostly dead.
        if len(self.queue) > 64 and len(self.queue) > 2 * self._queued:
            self.queue = deque(r for r in self.queue if r._in_queue)

    def _grant_waiters(self) -> None:
        trace = self.sim.trace
        users = self.users
        while self._queued and len(users) < self.capacity:
            request = self.queue.popleft()
            if not request._in_queue:
                continue  # cancelled while waiting
            request._in_queue = False
            self._queued -= 1
            now = self.sim._now
            self._busy_integral += len(users) * (now - self._last_change)
            self._last_change = now
            users[request] = None
            if trace is not None:
                request._granted_at = self.sim._now
                enqueued = request._enqueued_at
                # Contended acquisitions leave a wait span; immediate
                # grants would only add zero-length noise.
                if enqueued is not None and enqueued < self.sim._now:
                    trace.complete(self._wait_span, enqueued,
                                   category="resource")
            request.succeed(self)


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        # A NaN amount would sit at the head of the queue forever,
        # wedging every put behind it.
        if not (amount > 0 and isfinite(amount)):
            raise ValueError(
                f"put amount must be finite and > 0, got {amount}")
        super().__init__(container.sim)
        self.amount = amount
        container._puts.append(self)
        container._settle()


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        # A NaN amount would sit at the head of the queue forever,
        # wedging every get behind it.
        if not (amount > 0 and isfinite(amount)):
            raise ValueError(
                f"get amount must be finite and > 0, got {amount}")
        super().__init__(container.sim)
        self.amount = amount
        container._gets.append(self)
        container._settle()


class Container:
    """A continuous stock between 0 and ``capacity``.

    ``put`` blocks while the container lacks headroom; ``get`` blocks
    while it lacks stock.  Used for memory-occupancy modelling where
    tasks reserve megabytes rather than discrete slots.
    """

    def __init__(self, sim: Simulation, capacity: float,
                 init: float = 0.0, name: str = "container"):
        if not (capacity > 0 and isfinite(capacity)):
            raise ValueError(
                f"capacity must be finite and > 0, got {capacity}")
        if not 0 <= init <= capacity:
            raise ValueError("init outside [0, capacity]")
        self.sim = sim
        self.capacity = float(capacity)
        self.level = float(init)
        self.name = name
        self._puts: Deque[ContainerPut] = deque()
        self._gets: Deque[ContainerGet] = deque()

    def put(self, amount: float) -> ContainerPut:
        """Add ``amount``; fires once there is room."""
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        """Remove ``amount``; fires once there is stock."""
        return ContainerGet(self, amount)

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._puts and self.level + self._puts[0].amount <= self.capacity:
                put = self._puts.popleft()
                self.level += put.amount
                put.succeed()
                progressed = True
            if self._gets and self.level >= self._gets[0].amount:
                get = self._gets.popleft()
                self.level -= get.amount
                get.succeed()
                progressed = True


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.sim)
        self.item = item
        store._puts.append(self)
        store._settle()


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.sim)
        store._gets.append(self)
        store._settle()


class Store:
    """A FIFO queue of arbitrary items with optional bounded capacity."""

    def __init__(self, sim: Simulation, capacity: float = float("inf"),
                 name: str = "store"):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        self._puts: Deque[StorePut] = deque()
        self._gets: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Append ``item``; fires once the store has room."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Pop the oldest item; fires once one is available."""
        return StoreGet(self)

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._puts and len(self.items) < self.capacity:
                put = self._puts.popleft()
                self.items.append(put.item)
                put.succeed()
                progressed = True
            if self._gets and self.items:
                get = self._gets.popleft()
                get.succeed(self.items.popleft())
                progressed = True
