"""Service nodes of the LLMP stack: web servers, memcached, MySQL.

Each node wraps one simulated :class:`~repro.hardware.Server` and
exposes process generators implementing its service logic.  CPU bursts
queue on the server's vcore pool, so queueing delay emerges naturally
as offered load approaches capacity — the mechanism behind both the
cache-delay blow-up of Table 7 and the 500-error cliffs of Figures 4-6.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..hardware.server import Server
from ..net import Topology
from ..sim import Interrupt, Simulation
from . import params as P

#: Client-kernel SYN retransmission schedule (1 s, then 2 s, then 4 s).
SYN_RETRY_DELAYS = (1.0, 2.0, 4.0)

#: Admission control (resilience only) sheds new calls beyond this
#: fraction of the overload limit (``call_queue_limit``) — high enough
#: that redispatched and hedged bursts on the healthy survivors do not
#: themselves trigger shedding.
SHED_QUEUE_FRACTION = 0.75


@dataclass(slots=True)
class CallRecord:
    """Timing of one completed HTTP call, as logged on the web server."""

    start: float
    total_s: float = 0.0
    cache_s: float = 0.0
    db_s: float = 0.0
    status: int = 200
    connect_s: float = 0.0
    syn_retries: int = 0
    #: True when admission control fast-failed the call (resilience
    #: only; a shed 503 is retryable, unlike a dead server's 503).
    shed: bool = False
    #: CPU-busy seconds of this call (tracked only under resilience, so
    #: a losing hedge leg's *work* — not its queueing — is what the
    #: ledger prices as waste).
    cpu_s: float = 0.0
    #: Causal trace id of this call's span tree (0 when untraced); lets
    #: telemetry exemplars link a histogram bucket back to a trace.
    trace_id: int = 0

    @property
    def ok(self) -> bool:
        return self.status == 200


class PortPool:
    """Ephemeral port accounting with TIME_WAIT recycling.

    ``acquire`` is drop-style: a connection that finds no free port is
    refused (its SYN is dropped), mirroring kernel behaviour; ports
    return to the pool ``time_wait_s`` after the connection closes.
    """

    def __init__(self, sim: Simulation, size: int, time_wait_s: float):
        if size < 1:
            raise ValueError("port pool must hold at least one port")
        if time_wait_s < 0:
            raise ValueError("time_wait_s must be >= 0")
        self.sim = sim
        self.size = size
        self.available = size
        self.time_wait_s = time_wait_s

    def try_acquire(self) -> bool:
        """Claim a port if one is free."""
        if self.available <= 0:
            return False
        self.available -= 1
        return True

    def release_after_time_wait(self) -> None:
        """Schedule the port's return once TIME_WAIT expires."""
        if self.time_wait_s == 0:
            self.available += 1
            return
        wake = self.sim.timeout(self.time_wait_s)
        # Bound method as the callback: one closure per connection
        # close adds up across a sweep.
        wake.add_callback(self._release)

    def _release(self, _event=None) -> None:
        self.available = min(self.size, self.available + 1)


class CacheNode:
    """A memcached server."""

    def __init__(self, server: Server):
        self.server = server
        self.gets = 0
        trace = server.sim.trace
        if trace is not None:
            # A web server's span for a cache leg served here.
            self._leg_shape = trace.span_shape(
                "cache", "web", server.name, ("req", "hit"), True)

    def handle_get(self):
        """Process generator: serve one GET (CPU only; data is in RAM)."""
        self.gets += 1
        yield from self.server.cpu.execute(P.CACHE_OP_MI)


class DatabaseNode:
    """A MySQL server (always brawny Dell hardware, shared by both tiers)."""

    def __init__(self, server: Server, rng: random.Random):
        self.server = server
        self.rng = rng
        self.queries = 0
        trace = server.sim.trace
        if trace is not None:
            # A web server's span for a database leg served here.
            self._leg_shape = trace.span_shape(
                "db", "web", server.name, ("req",), True)

    def handle_query(self, content_bytes: float):
        """Process generator: execute one SELECT.

        Most rows are served from the buffer pool; a calibrated fraction
        of blob reads miss it and touch the disk.
        """
        self.queries += 1
        yield from self.server.cpu.execute(P.DB_QUERY_MI)
        if self.rng.random() < P.DB_DISK_PROBABILITY:
            yield from self.server.storage.read(content_bytes, buffered=True)


class WebServerNode:
    """A lighttpd + PHP web server with OS-level connection limits."""

    def __init__(self, sim: Simulation, server: Server, topology: Topology,
                 costs: P.ServiceCosts, limits: P.ConnectionLimits,
                 workload: P.WebWorkload, rng: random.Random,
                 cache_nodes: List[CacheNode],
                 db_nodes: List[DatabaseNode]):
        self.sim = sim
        self.server = server
        self.topology = topology
        self.costs = costs
        self.limits = limits
        self.workload = workload
        self.rng = rng
        self.cache_nodes = cache_nodes
        self.db_nodes = db_nodes
        self.ports = PortPool(sim, limits.port_pool, limits.time_wait_s)
        self.established = 0
        self.active_calls = 0
        #: Bumped by :meth:`reset` so connections that straddle a crash
        #: cannot tear down post-reboot state they no longer own.
        self.epoch = 0
        # Statistics.
        self.syn_drops = 0
        self.accepted = 0
        self.errors_500 = 0
        self.records: List[CallRecord] = []
        self.record_log_enabled = True
        # Resilience (opt-in via enable_resilience; all None/zero keeps
        # the node bit-identical to a build without the feature).
        self.resilience_ledger = None
        self.shed_calls = 0
        self._shed_threshold: Optional[int] = None
        if sim.trace is not None:
            self._request_shape = sim.trace.span_shape(
                "request", "web", server.name, ("req", "status"), True)

    # -- resilience ------------------------------------------------------

    def enable_resilience(self, ledger) -> None:
        """Arm admission control (queue-depth load shedding).

        Beyond :data:`SHED_QUEUE_FRACTION` of the overload limit, new
        calls get a cheap 503 fast-fail instead of queueing toward the
        client's timeout — the shed reply costs microseconds of CPU
        where a queued call would hold a worker for seconds.
        """
        self.resilience_ledger = ledger
        self._shed_threshold = max(1, int(
            self.limits.call_queue_limit * SHED_QUEUE_FRACTION))

    # -- connection admission -------------------------------------------

    def try_accept(self) -> bool:
        """Admit a SYN if a connection slot and an ephemeral port exist."""
        if (self.sim.faults is not None
                and not self.sim.faults.is_up(self.server.name)):
            # A dead server answers nothing; the SYN goes unanswered.
            self.syn_drops += 1
            return False
        if self.established >= self.limits.max_connections:
            self.syn_drops += 1
            return False
        if not self.ports.try_acquire():
            self.syn_drops += 1
            return False
        self.established += 1
        self.accepted += 1
        return True

    def close_connection(self, epoch: Optional[int] = None) -> None:
        """Tear down an established connection; port enters TIME_WAIT.

        ``epoch`` (when given) must match the server's current epoch:
        a close for a connection that died with a previous incarnation
        of the server is a stale no-op, not a teardown of fresh state.
        """
        if epoch is not None and epoch != self.epoch:
            return
        self.established -= 1
        self.ports.release_after_time_wait()

    def reset(self) -> None:
        """Reboot: every connection and in-flight call is forgotten."""
        self.established = 0
        self.active_calls = 0
        self.ports = PortPool(self.sim, self.limits.port_pool,
                              self.limits.time_wait_s)
        self.epoch += 1

    # -- request handling ----------------------------------------------------

    def _pick_content(self) -> float:
        if self.rng.random() < self.workload.image_fraction:
            return P.IMAGE_REPLY_BYTES
        return P.NON_IMAGE_REPLY_BYTES

    def handle_call(self, client_name: str, ctx=None):
        """Process generator: serve one HTTP call and send the reply.

        Returns the :class:`CallRecord`; also appends it to the node's
        log when logging is enabled.  ``ctx`` is the caller's
        :class:`~repro.trace.SpanContext` (the client-side call span);
        when tracing is on, the request span becomes its child and the
        cache/db legs become children of the request.
        """
        sim = self.sim
        record = CallRecord(start=sim._now)
        trace = sim.trace
        if trace is not None:
            req_ctx = trace.child_context(ctx)
            rid = req_ctx.span_id
            record.trace_id = req_ctx.trace_id
        else:
            req_ctx = None
            rid = 0
        if (self._shed_threshold is not None
                and self.active_calls >= self._shed_threshold):
            # Admission control: fast-fail while there is still queue
            # headroom, so the balancer can retry elsewhere in
            # milliseconds instead of discovering overload at the
            # client-timeout horizon.
            yield from self._shed_reply(record, client_name, rid, trace,
                                        req_ctx)
            return record
        if self.active_calls >= self.limits.call_queue_limit:
            # Thread/FD exhaustion: answer 500 cheaply (Figures 4-6's
            # "server error beyond the concurrency cliff").
            yield from self._error_reply(record, client_name, rid, trace,
                                         req_ctx)
            return record
        self.active_calls += 1
        faults = sim.faults
        process = sim._active_process
        name = self.server.name
        rng = self.rng
        cpu_execute = self.server.cpu.execute
        message = self.topology.message
        costs = self.costs
        track_cpu = self.resilience_ledger is not None
        busy_time = self.server.cpu.busy_time
        if faults is not None:
            faults.bind(name, process)
        # The backend leg currently in flight, as ("cache"|"db", start,
        # node): on an interrupt its span is closed with an ``aborted``
        # tag instead of silently vanishing from the trace.
        leg = None
        try:
            content = self._pick_content()
            # Per-request work varies (page size, PHP branches, kernel
            # interrupts): an exponential factor (mean 1, cv 1) leaves
            # capacity unchanged but produces the M/G/c queueing growth
            # behind the paper's delay-vs-concurrency curves.
            work_factor = rng.expovariate(1.0)
            mi = work_factor * 0.4 * costs.request_base_mi
            yield from cpu_execute(mi)
            if track_cpu:
                record.cpu_s += busy_time(mi)
            # Cache leg (timed as the paper's web-server logs time it).
            cache_start = sim._now
            cache = rng.choice(self.cache_nodes)
            if trace is not None:
                leg = ("cache", cache_start, cache.server.name)
            if faults is not None and not faults.is_up(cache.server.name):
                # Dead memcached: the get times out client-side and the
                # request falls through to the database as a miss.
                yield P.CACHE_DEAD_TIMEOUT_S
                hit = False
            else:
                yield from message(name, cache.server.name,
                                   P.CACHE_KEY_BYTES)
                yield from cache.handle_get()
                hit = rng.random() < self.workload.cache_hit_ratio
                if hit:
                    yield from message(cache.server.name, name, content)
            yield from cpu_execute(costs.cache_client_mi)
            if track_cpu:
                record.cpu_s += busy_time(costs.cache_client_mi)
            record.cache_s = sim._now - cache_start
            if trace is not None:
                leg = None
                trace.span(cache._leg_shape, cache_start,
                           trace.child_context(req_ctx), (rid, hit))
            if not hit:
                db_start = sim._now
                db = rng.choice(self.db_nodes)
                if faults is not None and not faults.is_up(db.server.name):
                    # Fail over to any live database replica; with the
                    # whole tier down the page cannot be built at all.
                    live = [d for d in self.db_nodes
                            if faults.is_up(d.server.name)]
                    if not live:
                        yield from self._error_reply(record, client_name,
                                                     rid, trace, req_ctx)
                        return record
                    db = live[0]
                if trace is not None:
                    leg = ("db", db_start, db.server.name)
                yield from message(name, db.server.name, P.DB_QUERY_BYTES)
                yield from db.handle_query(content)
                yield from message(db.server.name, name, content)
                yield from cpu_execute(costs.db_client_mi)
                if track_cpu:
                    record.cpu_s += busy_time(costs.db_client_mi)
                record.db_s = sim._now - db_start
                if trace is not None:
                    leg = None
                    trace.span(db._leg_shape, db_start,
                               trace.child_context(req_ctx), (rid,))
            assemble_mi = (0.6 * costs.request_base_mi
                           + costs.per_reply_kb_mi * content / 1000.0)
            yield from cpu_execute(work_factor * assemble_mi)
            if track_cpu:
                record.cpu_s += busy_time(work_factor * assemble_mi)
            yield from message(name, client_name, content)
            record.total_s = sim._now - record.start
            if trace is not None:
                trace.span(self._request_shape, record.start, req_ctx,
                           (rid, record.status))
            self._log(record)
            return record
        except Interrupt as exc:
            # The web server died under this request; the client's
            # connection is dead (reported as a 503 service failure).
            record.status = 503
            record.total_s = sim._now - record.start
            if trace is not None:
                cause = exc.cause
                kind = getattr(cause, "kind", None) or (
                    type(cause).__name__ if cause is not None
                    else "interrupt")
                if leg is not None:
                    # Close the backend leg the fault cut short so the
                    # causal tree never holds a dangling span.
                    leg_name, leg_start, leg_node = leg
                    trace.complete(leg_name, leg_start, category="web",
                                   node=leg_node,
                                   ctx=trace.child_context(req_ctx),
                                   req=rid, aborted=kind)
                trace.complete("request", record.start, category="web",
                               node=name, ctx=req_ctx, req=rid, status=503,
                               aborted=kind)
            self._log(record)
            return record
        finally:
            if faults is not None:
                faults.unbind(name, process)
            self.active_calls -= 1

    def _shed_reply(self, record: CallRecord, client_name: str,
                    rid: int, trace, ctx=None):
        """Fast-fail one call under admission control and meter the cost."""
        self.shed_calls += 1
        record.shed = True
        record.status = 503
        ledger = self.resilience_ledger
        ledger.count("sheds")
        ledger.charge("shed", self.server.cpu.busy_time(self.costs.error_mi),
                      self.server.marginal_vcore_watts())
        yield from self.server.cpu.execute(self.costs.error_mi)
        yield from self.topology.message(
            self.server.name, client_name, P.ERROR_REPLY_BYTES)
        record.total_s = self.sim.now - record.start
        if trace is not None:
            trace.complete("request", record.start, category="web",
                           node=self.server.name, ctx=ctx, req=rid,
                           status=503, shed=True)
        self._log(record)

    def _error_reply(self, record: CallRecord, client_name: str,
                     rid: int, trace, ctx=None):
        """Answer 500 cheaply and log the failed call."""
        self.errors_500 += 1
        record.status = 500
        yield from self.server.cpu.execute(self.costs.error_mi)
        yield from self.topology.message(
            self.server.name, client_name, P.ERROR_REPLY_BYTES)
        record.total_s = self.sim.now - record.start
        if trace is not None:
            trace.span(self._request_shape, record.start, ctx, (rid, 500))
        self._log(record)

    def _log(self, record: CallRecord) -> None:
        if self.record_log_enabled:
            self.records.append(record)
