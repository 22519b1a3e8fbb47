"""Wiring of the full Section 5.1 web-service testbed.

A :class:`WebServiceDeployment` owns one fresh simulation containing the
Table 6 server layout for a platform and scale, the shared Dell MySQL
tier, the 8 client hosts, the power meter over the metered (web+cache)
servers, and the httperf driver.  One deployment runs one concurrency
level; sweeps build a fresh deployment per level, exactly as the paper
restarts its 3-minute tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..cluster import web_cluster
from ..sim import RngStreams, Simulation
from . import params as P
from .httperf import HttperfDriver, LevelResult
from .nodes import CacheNode, DatabaseNode, WebServerNode


class WebServiceDeployment:
    """One platform/scale web-service testbed ready to serve load."""

    def __init__(self, platform: str, scale: str = "full",
                 workload: Optional[P.WebWorkload] = None,
                 seed: int = 20160901,
                 limits: Optional[P.ConnectionLimits] = None,
                 trace=None,
                 resilience: bool = False):
        self.platform = platform
        self.scale = scale
        self.workload = workload if workload is not None else P.WebWorkload()
        self.sim = Simulation(trace=trace)
        self.rng = RngStreams(seed)
        self.cluster = self._build_cluster()
        topo = self.cluster.topology
        self.db_nodes: List[DatabaseNode] = [
            DatabaseNode(self.cluster.servers[f"db-{i}"],
                         self.rng.stream(f"db-{i}"))
            for i in range(2)
        ]
        cache_servers = [s for n, s in self.cluster.servers.items()
                         if n.startswith("cache-")]
        self.cache_nodes: List[CacheNode] = [CacheNode(s)
                                             for s in cache_servers]
        web_servers = [s for n, s in self.cluster.servers.items()
                       if n.startswith("web-")]
        # Each node is wired from its own server's platform, so one
        # rotation can mix Edisons and R620s (the autoscale package's
        # hybrid fleet); ``limits`` overrides every node's.
        self.web_nodes: List[WebServerNode] = [
            WebServerNode(self.sim, s, topo, P.COSTS[s.spec.platform],
                          limits if limits is not None
                          else P.LIMITS[s.spec.platform],
                          self.workload, self.rng.stream(f"web-{i}"),
                          self.cache_nodes, self.db_nodes)
            for i, s in enumerate(web_servers)
        ]
        self.client_names = [f"client-{i}" for i in range(8)]
        #: Set by :meth:`repro.telemetry.Telemetry.attach_web` so the
        #: deployment can report client-side outcomes (timeouts) that
        #: no server-side scrape can see.
        self.telemetry = None
        #: The driver of the most recent :meth:`run_level` (exposes
        #: collected per-call delays for percentile reporting).
        self.last_driver: Optional[HttperfDriver] = None
        # Resilience is strictly opt-in; with it off nothing below
        # exists and runs stay bit-identical to the historical path.
        self.resilience = resilience
        self.resilience_ledger = None
        self.breakers = None
        self._backoff_rng = None
        if self.resilience:
            # The plane's modules load only when it is armed.
            from ..energy.account import OverheadLedger
            from ..resilience import LEDGER_CATEGORIES, LEDGER_COUNTERS
            from ..resilience.breaker import CircuitBreaker
            self.resilience_ledger = OverheadLedger(LEDGER_CATEGORIES,
                                                    LEDGER_COUNTERS)
            self._backoff_rng = self.rng.stream("resilience.retry")
            self.breakers = {
                w.server.name: CircuitBreaker(self.sim, w.server.name)
                for w in self.web_nodes}
            for web in self.web_nodes:
                web.enable_resilience(self.resilience_ledger)
        # Pin the steady-state RAM footprints from Section 5.1.2.
        for role, nodes in (("web", self.web_nodes),
                            ("cache", self.cache_nodes)):
            for node in nodes:
                server = node.server
                frac = P.MEMORY_RESERVATION[(server.spec.platform, role)]
                server.memory.reserve(frac * server.memory.capacity_bytes)
        self.meter = self.cluster.attach_meter(interval=0.25)

    def _build_cluster(self):
        """The Table 6 layout for this platform and scale."""
        return web_cluster(self.sim, self.platform, self.scale)

    # -- fault injection ---------------------------------------------------

    def attach_faults(self, plan, **kwargs):
        """Attach a :class:`repro.faults.FaultInjector` running ``plan``.

        Also wires the deployment's recovery hook: a web server whose
        crash is repaired reboots with a clean connection table (see
        :meth:`WebServerNode.reset`).
        """
        from ..faults import FaultInjector   # loaded only when armed
        injector = FaultInjector(self.cluster, plan, **kwargs)
        injector.add_listener(self._on_fault_event)
        return injector

    def _on_fault_event(self, event: str, node: str, kind: str) -> None:
        """The recovery rule every web deployment shares."""
        # "admin" is the autoscaler's deliberate suspend/resume: a node
        # coming back from it reboots with a clean connection table
        # exactly like one repaired after a crash.  A healed partition
        # gets the same reset: clients abandoned every connection into
        # the black hole long ago, so the server's half of the table is
        # stale fiction, not state worth keeping.
        if event != "up" or kind not in ("crash", "admin", "partition",
                                         "switch_down"):
            return
        for web in self.web_nodes:
            if web.server.name == node:
                web.reset()
                return

    # -- capacity planning -------------------------------------------------

    @property
    def web_server_count(self) -> int:
        return len(self.web_nodes)

    def target_rps(self) -> float:
        """The hand-tuned peak offered rate for this deployment."""
        per_server = P.PER_SERVER_CAPACITY_RPS[self.platform]
        factor = P.workload_factor(self.workload.image_fraction,
                                   self.workload.cache_hit_ratio)
        return per_server * self.web_server_count * factor

    # -- running one level ------------------------------------------------

    def run_level(self, concurrency: int, duration: float = 4.0,
                  warmup: float = 1.0,
                  calls: Optional[int] = None,
                  collect_delays: bool = False) -> LevelResult:
        """Drive one httperf concurrency level and report the metrics.

        The measurement window is ``[warmup, duration]``; the paper's
        3-minute levels are shortened because simulated rates, not
        wall-clock confidence, set the fidelity here.  With
        ``collect_delays`` the driver keeps every in-window per-call
        delay (``self.last_driver.delays``) for percentile reporting.
        """
        if duration <= warmup:
            raise ValueError("duration must exceed warmup")
        if calls is None:
            calls = P.tuned_calls_per_connection(concurrency,
                                                 self.target_rps())
        driver = HttperfDriver(
            self.sim, self.cluster.topology, self.web_nodes,
            self.client_names, self.workload,
            self.rng.stream("arrivals"), collect_after=warmup,
            resilience=self.resilience, ledger=self.resilience_ledger,
            retry_rng=self._backoff_rng, breakers=self.breakers,
            collect_delays=collect_delays)
        result = self._drive(
            driver, driver.generate(concurrency, calls, until=duration),
            concurrency, calls, duration, warmup)
        if self.resilience_ledger is not None:
            self.resilience_ledger.counters["breaker_opens"] = sum(
                b.open_count for b in self.breakers.values())
        return result

    # -- running a shaped (time-varying) day -------------------------------

    def run_shaped(self, shape, duration: float, warmup: float = 0.0,
                   calls: int = 5, rotation=None,
                   collect_delays: bool = False) -> LevelResult:
        """Drive a :class:`~repro.web.loadshape.ShapedLoad` day.

        The static arms of the autoscaling experiment run through
        here: same deployment, same backends, but arrivals follow the
        diurnal + flash-crowd rate function instead of one fixed
        concurrency, through ``rotation`` when one is given (the
        hybrid fleet's weighted balancer).  The reported
        ``concurrency`` is 0 (there is no single level).  The
        resilient driver options deliberately stay off here: shaped
        days measure provisioning, not gray-failure mitigation.
        """
        if duration <= warmup:
            raise ValueError("duration must exceed warmup")
        driver = HttperfDriver(
            self.sim, self.cluster.topology, self.web_nodes,
            self.client_names, self.workload,
            self.rng.stream("arrivals"), collect_after=warmup,
            collect_delays=collect_delays)
        return self._drive(
            driver, driver.generate_shaped(shape, calls, until=duration,
                                           rotation=rotation),
            0, calls, duration, warmup)

    def _drive(self, driver: HttperfDriver, arrivals, concurrency: int,
               calls: int, duration: float, warmup: float) -> LevelResult:
        """Run ``driver``'s ``arrivals`` process to ``duration``, charge
        its client-side failures to the telemetry SLO, and report the
        ``[warmup, duration]`` window."""
        sim = self.sim
        if sim.faults is not None:
            # Covers injectors attached directly rather than through
            # attach_faults (add_listener deduplicates).
            sim.faults.add_listener(self._on_fault_event)
        self.last_driver = driver
        sim.process(arrivals)
        self.meter.start(until=duration)
        sim.run(until=duration)
        stats = driver.stats
        if self.telemetry is not None:
            # Abandoned calls *and* connections that never established
            # (SYN retries exhausted) are user-visible outages no server
            # log sees; both charge the availability SLO.
            self.telemetry.note_client_outcomes(
                timeouts=stats.timeout_calls,
                give_ups=stats.failed_connections)
        counted = max(1, stats.ok_calls)
        power_samples = [v for t, v in self.meter.series.pairs()
                         if t >= warmup]
        mean_power = (sum(power_samples) / len(power_samples)
                      if power_samples else self.cluster.idle_watts())
        return LevelResult(
            platform=self.platform,
            concurrency=concurrency,
            calls_per_connection=calls,
            window_s=duration - warmup,
            ok_calls=stats.ok_calls,
            error_calls=stats.error_calls,
            timeout_calls=stats.timeout_calls,
            failed_connections=stats.failed_connections,
            connections=stats.connections,
            syn_retries=stats.syn_retries,
            mean_delay_s=stats.delay_sum_s / counted,
            mean_power_w=mean_power,
        )

    # -- web-server-side logs (Table 7) --------------------------------------

    def call_records(self, after: float = 0.0):
        """All web-server call logs recorded at or after ``after``."""
        records = []
        for node in self.web_nodes:
            records.extend(r for r in node.records if r.start >= after)
        return records


@dataclass(frozen=True)
class DelayDecomposition:
    """One Table 7 row: mean delays in seconds."""

    request_rate: float
    db_delay_s: float
    cache_delay_s: float
    total_delay_s: float


def measure_delay_decomposition(platform: str, request_rate: float,
                                duration: float = 4.0, warmup: float = 1.0,
                                trace=None) -> DelayDecomposition:
    """Reproduce one row of Table 7 (20 % images, 93 % hit ratio).

    Offered load is fixed at ``request_rate`` with the paper's mix; the
    decomposition averages the web-server-side logs, counting database
    delay only over cache-miss requests as the paper does.  Passing a
    :class:`repro.trace.Tracer` records the run, from whose spans
    :func:`repro.trace.delay_decomposition_from_trace` re-derives this
    same decomposition (the trace-as-oracle cross-check).
    """
    workload = P.WebWorkload(image_fraction=0.20, cache_hit_ratio=0.93)
    deployment = WebServiceDeployment(platform, "full", workload,
                                      trace=trace)
    calls = 13
    concurrency = max(1, round(request_rate / calls))
    deployment.run_level(concurrency, duration=duration, warmup=warmup,
                         calls=calls)
    records = [r for r in deployment.call_records(after=warmup) if r.ok]
    if not records:
        raise RuntimeError("no completed requests in the window")
    misses = [r for r in records if r.db_s > 0]
    db = sum(r.db_s for r in misses) / len(misses) if misses else 0.0
    cache = sum(r.cache_s for r in records) / len(records)
    total = sum(r.total_s for r in records) / len(records)
    return DelayDecomposition(request_rate=request_rate, db_delay_s=db,
                              cache_delay_s=cache, total_delay_s=total)
