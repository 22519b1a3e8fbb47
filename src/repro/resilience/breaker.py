"""Per-backend circuit breaker.

The classic three-state machine, driven entirely by simulated time:

* **closed** — requests flow; consecutive failures are counted and the
  breaker trips open at :data:`FAILURE_THRESHOLD`.
* **open** — requests are refused outright (the load balancer routes
  around the backend) until :data:`COOLDOWN_S` has elapsed.
* **half-open** — exactly one probe request is admitted; success closes
  the breaker, failure re-opens it and restarts the cooldown.

The breaker is latency-aware: :meth:`record_success` given a duration
past :data:`SLOW_CALL_S` counts as a failure, so slow-but-alive backends
(the defining shape of a gray failure) trip it too.

The breaker holds no timers of its own: state is resolved lazily from
``sim.now`` inside :meth:`allow`, so an idle breaker costs nothing and
the machinery adds zero events to the simulation.
"""

from __future__ import annotations

from ..sim import Simulation

#: Consecutive failures that trip a closed breaker open.
FAILURE_THRESHOLD = 5
#: Seconds an open breaker refuses before admitting a half-open probe.
COOLDOWN_S = 1.0
#: A *successful* answer at least this slow counts as a failure: gray
#: failures — a throttled CPU, a lossy NIC — produce slow 200s, not
#: error codes, and a breaker that only counts errors never sees them.
SLOW_CALL_S = 2.0

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-counting breaker guarding one backend."""

    __slots__ = ("sim", "name", "state", "failures", "opened_at",
                 "open_count", "_probe_in_flight")

    def __init__(self, sim: Simulation, name: str):
        self.sim = sim
        self.name = name
        self.state = CLOSED
        self.failures = 0
        self.opened_at = -float("inf")
        self.open_count = 0
        self._probe_in_flight = False

    def allow(self) -> bool:
        """May a request be sent to this backend right now?

        Calling this while half-open claims the single probe slot, so
        callers must follow through with exactly one request and report
        its outcome.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self.sim.now - self.opened_at < COOLDOWN_S:
                return False
            self.state = HALF_OPEN
            self._probe_in_flight = False
        # Half-open: admit a single probe at a time.
        if self._probe_in_flight:
            return False
        self._probe_in_flight = True
        return True

    def record_success(self, duration_s: float = None) -> None:
        """Report a successful answer (optionally with its latency).

        A success slower than :data:`SLOW_CALL_S` is treated as a
        failure: gray failures answer correctly but late, and a breaker
        counting only error codes would never open on them.
        """
        if duration_s is not None and duration_s >= SLOW_CALL_S:
            self.record_failure()
            return
        if self.state == HALF_OPEN:
            self.state = CLOSED
            self._probe_in_flight = False
        self.failures = 0

    def record_failure(self) -> None:
        if self.state == HALF_OPEN:
            # The probe failed: back to a full cooldown.
            self._trip()
            return
        if self.state == OPEN:
            return
        self.failures += 1
        if self.failures >= FAILURE_THRESHOLD:
            self._trip()

    def _trip(self) -> None:
        self.state = OPEN
        self.opened_at = self.sim.now
        self.failures = 0
        self.open_count += 1
        self._probe_in_flight = False
