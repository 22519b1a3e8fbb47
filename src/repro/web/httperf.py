"""httperf-style open-loop workload generation and per-level results.

The paper drives each concurrency level with 8 httperf clients behind
8 HAProxy balancers, tuning calls-per-connection so the offered request
rate matches what the tier can sustain.  Here one generator process per
deployment spawns connections at the target aggregate rate (Poisson
arrivals), assigns them round-robin to web servers (the HAProxy role)
and round-robin to the 8 client hosts (the httperf role).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..sim import AnyOf, Timeout, backoff_delay
from . import params as P
from .nodes import SYN_RETRY_DELAYS, WebServerNode

#: Resilient path: a failed call is retried at most this many times...
MAX_CALL_RETRIES = 2
#: ...and a call still unanswered after this many seconds is hedged.
HEDGE_TRIGGER_S = 0.75


@dataclass
class LevelStats:
    """Raw counters accumulated while one concurrency level runs."""

    ok_calls: int = 0
    error_calls: int = 0
    timeout_calls: int = 0
    failed_connections: int = 0
    connections: int = 0
    syn_retries: int = 0
    delay_sum_s: float = 0.0          # per-call delay incl. connect share


@dataclass(frozen=True)
class LevelResult:
    """One point on the Figure 4-9 curves."""

    platform: str
    concurrency: int
    calls_per_connection: int
    window_s: float
    ok_calls: int
    error_calls: int
    timeout_calls: int
    failed_connections: int
    connections: int
    syn_retries: int
    mean_delay_s: float
    mean_power_w: float

    @property
    def requests_per_second(self) -> float:
        return self.ok_calls / self.window_s

    @property
    def has_server_errors(self) -> bool:
        """True when the paper would exclude this level (5xx observed)."""
        return self.error_calls > 0

    @property
    def energy_joules(self) -> float:
        return self.mean_power_w * self.window_s


class HttperfDriver:
    """Generates connections against a set of web-server nodes."""

    def __init__(self, sim, topology, web_nodes: List[WebServerNode],
                 client_names: List[str], workload: P.WebWorkload, rng,
                 collect_after: float = 0.0,
                 resilience: bool = False, ledger=None, retry_rng=None,
                 breakers=None, collect_delays: bool = False):
        if not web_nodes or not client_names:
            raise ValueError("need web nodes and client hosts")
        self.sim = sim
        self.topology = topology
        self.web_nodes = web_nodes
        self.client_names = client_names
        self.workload = workload
        self.rng = rng
        self.collect_after = collect_after
        self.stats = LevelStats()
        # -- resilience (all off/None on the historical path) ------------
        #: True arms the mitigations; the three below then all exist.
        self.resilience = resilience
        #: The resilience :class:`~repro.energy.account.OverheadLedger`.
        self.ledger = ledger
        #: Dedicated seeded stream for retry backoff jitter.
        self.retry_rng = retry_rng
        #: name -> :class:`repro.resilience.CircuitBreaker` per backend.
        self.breakers = breakers
        #: Collect per-call client-observed delays (for p95 reporting).
        self.collect_delays = collect_delays
        self.delays: List[float] = []
        self._rr = 0      # balancer round-robin cursor (resilient path)

    def generate(self, concurrency: float, calls: int, until: float):
        """Process generator: spawn connections at ``concurrency``/s."""
        if concurrency <= 0 or calls < 1:
            raise ValueError("concurrency must be > 0 and calls >= 1")
        index = 0
        web_nodes = self.web_nodes
        clients = self.client_names
        n = len(web_nodes)
        sim = self.sim
        expovariate = self.rng.expovariate
        resilient = self.resilience
        while sim._now < until:
            yield expovariate(concurrency)
            if sim.faults is None and not resilient:
                web = web_nodes[index % n]
                client = clients[index % len(clients)]
                index += 1
            else:
                client, web, index = self._pick(index)
                if web is None:
                    self._count_failed_connection()
                    continue
            sim.process(self._connection(client, web, calls),
                        name=f"conn-{index}")

    def generate_shaped(self, shape, calls: int, until: float,
                        rotation=None):
        """Process generator: open-loop arrivals following ``shape``.

        Non-homogeneous Poisson arrivals by Lewis-Shedler thinning:
        candidate connections arrive at the shape's constant peak
        bound and each survives with probability ``rate(t)/bound`` —
        an exact simulation of the time-varying process, and a seeded
        one (two runs of the same shape and seed see identical
        arrivals).  Backends come from ``rotation`` (a
        :class:`~repro.web.rotation.WeightedRotation`, for
        heterogeneous/autoscaled pools) or, when None, the same
        health-checked round-robin as :meth:`generate`.

        This is a separate method rather than a mode of
        :meth:`generate` on purpose: the fixed-rate path's event and
        RNG sequence is pinned float-for-float by committed baselines.
        """
        if calls < 1:
            raise ValueError("calls must be >= 1")
        peak_rps = shape.peak_bound()
        if peak_rps <= 0:
            raise ValueError("the shape's peak bound must be > 0")
        bound_cps = peak_rps / calls      # connection-arrival envelope
        index = 0
        web_nodes = self.web_nodes
        clients = self.client_names
        n = len(web_nodes)
        sim = self.sim
        rng = self.rng
        while sim._now < until:
            yield rng.expovariate(bound_cps)
            if rng.random() * peak_rps >= shape.rate(sim._now):
                continue                  # thinned: candidate rejected
            if rotation is not None:
                client = clients[index % len(clients)]
                index += 1
                web = rotation.pick()
            elif sim.faults is None:
                web = web_nodes[index % n]
                client = clients[index % len(clients)]
                index += 1
            else:
                client, web, index = self._pick(index)
            if web is None:
                self._count_failed_connection()
                continue
            sim.process(self._connection(client, web, calls),
                        name=f"conn-{index}")

    def _pick(self, index: int):
        """Health-checked round robin: ``(client, web, next_index)``.

        The HAProxy role: health checks pull a backend out of rotation
        once its outage exceeds the detection window, so its share of
        the load fails over to the survivors.  ``web`` is None when
        every backend is marked down.  The plain driver takes the
        client host paired with the chosen backend's slot; the
        resilient one takes the slot's client before the pick.
        """
        clients = self.client_names
        client = clients[index % len(clients)]
        web, index = self._pick_backend(index)
        if not self.resilience:
            client = clients[(index - 1) % len(clients)]
        return client, web, index

    def _connection(self, client: str, web: WebServerNode, calls: int):
        """One httperf connection: SYN (with retries), then ``calls`` calls.

        When tracing is on, the whole connection becomes one causal
        tree: a ``connection`` root span, a ``connect`` child for the
        handshake, and per call a client-side ``call`` child whose
        context rides into :meth:`WebServerNode.handle_call` — the
        request/cache/db spans become its descendants.

        With resilience armed the SYN and every call go through the
        mitigations (:meth:`_establish`, :meth:`_resilient_call`);
        otherwise both run inline here.
        """
        sim = self.sim
        trace = sim.trace
        conn_ctx = trace.root_context() if trace is not None else None
        start = sim._now
        resilient = self.resilience
        if resilient:
            web, attempt = yield from self._establish(web)
            if web is None:
                self._count_failed_connection()
                return
        else:
            attempt = 0
            while not web.try_accept():
                if attempt >= len(SYN_RETRY_DELAYS):
                    self._count_failed_connection()
                    return
                yield SYN_RETRY_DELAYS[attempt]
                attempt += 1
                self._count_syn_retry()
        web_name = web.server.name
        yield self.topology.rtt(client, web_name)
        connect_delay = sim._now - start
        if trace is not None:
            trace.complete("connect", start, category="web",
                           node=web_name, ctx=trace.child_context(conn_ctx),
                           client=client, syn_retries=attempt)
        self._count_connection()
        epoch = web.epoch
        message = self.topology.message
        request_bytes = self.workload.request_bytes
        timeout_s = self.workload.client_timeout_s
        try:
            for i in range(calls):
                call_start = sim._now
                call_ctx = trace.child_context(conn_ctx) \
                    if trace is not None else None
                if resilient:
                    record = yield from self._resilient_call(client, web,
                                                             call_ctx)
                else:
                    yield from message(client, web_name, request_bytes)
                    handler = sim.process(web.handle_call(client,
                                                          ctx=call_ctx))
                    timer = Timeout(sim, timeout_s)
                    yield AnyOf(sim, [handler, timer])
                    record = None
                    if handler.processed:
                        # The race is settled: drop the client-timeout
                        # timer from the calendar instead of letting every
                        # completed call leave a dead 10 s entry bloating
                        # the heap.
                        timer.cancel()
                        record = handler.value
                if record is None:
                    self._count_timeout()
                    if trace is not None:
                        trace.complete("call", call_start, category="web",
                                       node=client, ctx=call_ctx,
                                       aborted="client-timeout")
                    return  # client gave up; server keeps grinding
                call_delay = sim._now - call_start
                if trace is not None:
                    trace.complete("call", call_start, category="web",
                                   node=client, ctx=call_ctx,
                                   status=record.status)
                reported = call_delay + (connect_delay if i == 0 else 0.0)
                self._count_call(record.ok, reported)
                if record.status == 503 and not (resilient and record.shed):
                    return  # the server died; the connection died with it
        finally:
            web.close_connection(epoch)
            if trace is not None:
                trace.complete("connection", start, category="web",
                               node=web_name, ctx=conn_ctx, client=client)

    # -- the resilient path ------------------------------------------------
    #
    # Active only with resilience armed: the balancer role grows a
    # per-backend circuit breaker, SYN failover, capped-backoff call
    # retries and hedging.  Calls retried or hedged away from
    # the connection's backend are re-dispatched as fresh legs to the
    # alternate node (HAProxy redispatch), not new client connections.

    def _breaker(self, web: WebServerNode):
        if self.breakers is None:
            return None
        return self.breakers.get(web.server.name)

    def _pick_backend(self, index: int, exclude=None):
        """Round-robin pick honouring health detection and breakers.

        Returns ``(web, next_index)``; ``web`` is None when no live
        backend exists at all.  When every live backend's breaker
        refuses, the first live one is used anyway — a tripped breaker
        must route *around* a limping backend, never manufacture a
        total outage.
        """
        faults = self.sim.faults
        n = len(self.web_nodes)
        fallback = None
        for _ in range(n):
            candidate = self.web_nodes[index % n]
            index += 1
            if candidate is exclude:
                continue
            if (faults is not None
                    and faults.detected_down(candidate.server.name)):
                continue
            if fallback is None:
                fallback = candidate
            breaker = self._breaker(candidate)
            if breaker is None or breaker.allow():
                return candidate, index
        return fallback, index

    def _establish(self, web: Optional[WebServerNode]):
        """SYN with retries plus breaker-informed backend failover.

        Each dropped SYN counts against the backend's breaker, and one
        alternate backend is probed per round before sleeping the
        kernel's retransmission delay — the balancer knows other accept
        queues may have room even while the client's kernel backs off.
        """
        attempt = 0
        while True:
            if web is not None:
                if web.try_accept():
                    return web, attempt
                self.breakers[web.server.name].record_failure()
            if attempt >= len(SYN_RETRY_DELAYS):
                return None, attempt
            alternate, self._rr = self._pick_backend(self._rr, exclude=web)
            if alternate is not None and alternate is not web:
                if alternate.try_accept():
                    return alternate, attempt
                self.breakers[alternate.server.name].record_failure()
            yield SYN_RETRY_DELAYS[attempt]
            attempt += 1
            self._count_syn_retry()

    def _resilient_call(self, client: str, web: WebServerNode, ctx=None):
        """One call with retry-on-failure; returns the final record.

        Returns None when the client's timeout expired (no retry: a
        user who waited ``client_timeout_s`` is gone).  Failed calls
        (shed, overloaded, dead backend) retry after seeded backoff,
        redispatched to a different backend when one exists.
        """
        backend = web
        record = None
        for attempt in range(MAX_CALL_RETRIES + 1):
            if not self.breakers[backend.server.name].allow():
                # The target's breaker is open (and this call did not
                # win the half-open probe slot): route the call to a
                # healthy backend instead of burning an attempt on a
                # known-limping one.  The connection stays up — only
                # this call is redispatched.
                alternate, self._rr = self._pick_backend(
                    self._rr, exclude=backend)
                if alternate is not None:
                    backend = alternate
            record, served_by = yield from self._race(client, backend, ctx)
            if record is None:
                return None
            if record.ok or attempt >= MAX_CALL_RETRIES:
                return record
            self.ledger.count("retries")
            yield backoff_delay(self.retry_rng, attempt)
            alternate, self._rr = self._pick_backend(
                self._rr, exclude=served_by)
            if alternate is not None:
                backend = alternate
        return record

    def _race(self, client: str, primary: WebServerNode, ctx=None):
        """One call attempt, hedged: first OK answer wins.

        A duplicate leg launches on another backend once the primary
        outlives the hedge trigger.  Losing legs are not cancelled (a
        sent request cannot be unsent); a reaper charges their full
        service time to the ledger as hedge waste when they finish.
        Returns ``(record, backend)`` of the settled outcome, or
        ``(None, None)`` on client timeout.
        """
        sim = self.sim
        deadline = Timeout(sim, self.workload.client_timeout_s)
        hedge_timer = Timeout(sim, HEDGE_TRIGGER_S)
        yield from self.topology.message(
            client, primary.server.name, self.workload.request_bytes)
        legs = [(primary, sim.process(primary.handle_call(client, ctx=ctx)))]
        settled = set()
        while True:
            failed = None
            for backend, process in legs:
                if not process.processed or process in settled:
                    continue
                settled.add(process)
                rec = process.value
                breaker = self.breakers[backend.server.name]
                if rec.ok:
                    # Latency-aware: a slow 200 counts against the
                    # backend (gray failures answer late, not 500).
                    breaker.record_success(rec.total_s)
                    if backend is not primary:
                        self.ledger.count("hedge_wins")
                    self._reap_losers(legs, process)
                    deadline.cancel()
                    if hedge_timer is not None:
                        hedge_timer.cancel()
                    return rec, backend
                if not rec.shed:
                    # A shed is deliberate backpressure ("busy right
                    # now"), not backend sickness; counting it would
                    # cascade-trip every survivor under redirect load.
                    breaker.record_failure()
                failed = (rec, backend)
            if all(process.processed for _, process in legs):
                deadline.cancel()
                if hedge_timer is not None:
                    hedge_timer.cancel()
                return failed
            if deadline.processed:
                # The client gives up; still-running legs grind on
                # server-side, exactly as un-mitigated timeouts do.
                if hedge_timer is not None:
                    hedge_timer.cancel()
                return None, None
            if (hedge_timer is not None and hedge_timer.processed
                    and len(legs) == 1):
                alternate, self._rr = self._pick_backend(
                    self._rr, exclude=primary)
                if alternate is not None:
                    self.ledger.count("hedges")
                    if sim.trace is not None:
                        sim.trace.instant("hedge.launch",
                                          category="resilience",
                                          node=alternate.server.name)
                    yield from self.topology.message(
                        client, alternate.server.name,
                        self.workload.request_bytes)
                    legs.append(
                        (alternate,
                         sim.process(alternate.handle_call(client,
                                                           ctx=ctx))))
                hedge_timer = None   # at most one hedge per call
            events = [process for _, process in legs
                      if not process.processed]
            if hedge_timer is not None and not hedge_timer.processed:
                events.append(hedge_timer)
            events.append(deadline)
            yield AnyOf(sim, events)

    def _reap_losers(self, legs, winner) -> None:
        for backend, process in legs:
            if process is winner or process.processed:
                continue
            self.sim.process(self._reap_loser(backend, process))

    def _reap_loser(self, backend: WebServerNode, process):
        """Wait out a losing hedge leg and bill its joules as waste.

        Billed at the leg's CPU-busy seconds, not its wall time: while
        the loser queues, the vcores are serving *other* calls whose
        energy is already accounted as useful work.
        """
        yield process
        record = process.value
        seconds = record.cpu_s if record is not None else 0.0
        self.ledger.charge("hedge", seconds,
                           backend.server.marginal_vcore_watts())

    # -- windowed counting -------------------------------------------------

    def _in_window(self) -> bool:
        return self.sim._now >= self.collect_after

    def _count_call(self, ok: bool, reported: float):
        if not self._in_window():
            return
        if ok:
            self.stats.ok_calls += 1
            self.stats.delay_sum_s += reported
            if self.collect_delays:
                self.delays.append(reported)
        else:
            self.stats.error_calls += 1

    def _count_timeout(self):
        if self._in_window():
            self.stats.timeout_calls += 1

    def _count_failed_connection(self):
        if self._in_window():
            self.stats.failed_connections += 1

    def _count_syn_retry(self):
        if self._in_window():
            self.stats.syn_retries += 1

    def _count_connection(self):
        if self._in_window():
            self.stats.connections += 1
