"""Per-node scrape agents and the :class:`Telemetry` facade.

Each simulated node gets a :class:`NodeAgent` — the stand-in for a
node_exporter/collectd daemon — running as a simulation process that
periodically samples that node's state into the shared
:class:`~repro.telemetry.tsdb.TimeSeriesDB`:

* hardware utilisation (CPU/memory/disk/NIC) and instantaneous power,
* CPU run-queue depth,
* web-tier counters (connections, in-flight calls, requests, errors,
  delays) when the node hosts a web server,
* YARN container memory occupancy when the node runs a NodeManager,
* a heartbeat ``up`` series whose *absence* is how node death is
  detected.

Scrapes are pure reads.  Agents never draw random numbers, never
acquire simulated resources, and probe utilisation through
:meth:`~repro.hardware.server.Server.utilization_now` (which does not
advance the power meter's probe windows), so attaching telemetry to a
run leaves its results bit-identical — the monitoring plane observes
the experiment without becoming part of it.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..sim import TimeSeries
from ..trace.metrics import MetricsRegistry
from .rules import AlertManager
from .slo import DetectionReport, SloReport, SloSpec
from .tsdb import TimeSeriesDB

#: Scrape and rule-evaluation cadence: matches the web meter's 0.25 s
#: sampling.
SCRAPE_INTERVAL = 0.25


class NodeAgent:
    """The per-node scraper; one instance per simulated server."""

    def __init__(self, telemetry: "Telemetry", server,
                 web_node=None, node_manager=None):
        self.telemetry = telemetry
        self.server = server
        self.node = server.name
        self.web_node = web_node
        self.node_manager = node_manager
        self.samples = 0
        # High-water mark into the web node's append-only call log, so
        # each scrape only walks records that arrived since the last.
        self._record_index = 0
        self._errors = 0
        # This node's series, by metric name, resolved at first use so
        # the database creates them in the order the scrapes reach them.
        self._series: Dict[str, TimeSeries] = {}

    def run(self, sim, until: Optional[float] = None):
        """Process generator: scrape every :data:`SCRAPE_INTERVAL`."""
        while until is None or sim.now <= until:
            faults = sim.faults
            # A partitioned node is alive but its pushes never reach the
            # central TSDB, so it goes silent exactly like a dead one;
            # only the injector's ground truth tells the two apart.
            if faults is None or (faults.is_up(self.node)
                                  and faults.is_reachable(self.node)):
                self.scrape(sim.now)
            yield sim.timeout(SCRAPE_INTERVAL)

    def _sample(self, now: float, name: str, value: float) -> None:
        """Append one sample to this node's series ``name``."""
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = self.telemetry.db.series(
                name, node=self.node)
        series.record(now, float(value))

    def scrape(self, now: float) -> None:
        """Take one sample set.  Pure reads only — see module docstring."""
        self.samples += 1
        self._sample(now, "up", 1.0)
        utilization = self.server.utilization_now()
        self._sample(now, "node_cpu_utilization", utilization["cpu"])
        self._sample(now, "node_mem_utilization", utilization["mem"])
        self._sample(now, "node_disk_utilization", utilization["disk"])
        self._sample(now, "node_net_utilization", utilization["net"])
        self._sample(now, "cpu_queue_depth",
                     self.server.cpu.vcores.queue_length)
        self._sample(now, "node_power_w",
                     self.server.spec.power.power(utilization,
                                                  self.server.cpu.pstate))
        if self.web_node is not None:
            self._scrape_web(now)
        if self.node_manager is not None:
            nm = self.node_manager
            self._sample(now, "yarn_container_mem_mb",
                         nm.total_mem_mb - nm.free_mem_mb)

    def _scrape_web(self, now: float) -> None:
        web = self.web_node
        self._sample(now, "web_connections", web.established)
        self._sample(now, "web_active_calls", web.active_calls)
        self._sample(now, "web_syn_drops_total", web.syn_drops)
        # Walk only the records appended since the previous scrape; the
        # log is append-only (reboots bump the epoch, not the list).
        fresh = web.records[self._record_index:]
        self._record_index = len(web.records)
        delays = []
        histogram = self.telemetry.metrics.histogram("web.delay_s")
        exemplars = self.telemetry.exemplars
        for record in fresh:
            if record.ok:
                delays.append(record.total_s)
                histogram.observe(record.total_s)
                if exemplars is not None and record.trace_id:
                    # Deterministic worst-per-bucket keep: no RNG, so
                    # exemplar collection can never perturb the run.
                    exemplars.observe(record.total_s, record.trace_id)
            elif not record.shed:
                # Shed 503s are deliberate backpressure the resilient
                # client retries elsewhere; they show up in
                # web_shed_total, and any call the user actually lost
                # is charged through client_failures instead.
                self._errors += 1
        self._sample(now, "web_requests_total", self._record_index)
        self._sample(now, "web_errors_total", self._errors)
        if web.resilience_ledger is not None:
            self._sample(now, "web_shed_total", web.shed_calls)
        if delays:
            self._sample(now, "web_mean_delay_s",
                         sum(delays) / len(delays))


class ClusterAgent:
    """Cluster-wide scraper: mirrors the power meter and alive count."""

    def __init__(self, telemetry: "Telemetry", cluster, meter=None):
        self.telemetry = telemetry
        self.cluster = cluster
        self.meter = meter

    def run(self, sim, until: Optional[float] = None):
        db = self.telemetry.db
        while until is None or sim.now <= until:
            faults = sim.faults
            names = list(self.cluster.servers)
            alive = sum(1 for n in names
                        if faults is None or faults.is_up(n))
            db.record(sim.now, "cluster_nodes_up", float(alive))
            if self.meter is not None and self.meter.series.times:
                # Re-publish the meter's latest reading rather than
                # re-probing: probing would advance the utilisation
                # windows the meter itself depends on.
                db.record(sim.now, "cluster_power_w",
                          self.meter.series.values[-1])
            yield sim.timeout(SCRAPE_INTERVAL)


class Telemetry:
    """The monitoring plane for one run: scrapers + TSDB + alerting.

    Construct one, attach it to a deployment or job runner *before*
    running, then read reports afterwards::

        telemetry = Telemetry(rules=default_rules())
        deployment = WebServiceDeployment("edison", "1/8", seed=3)
        telemetry.attach_web(deployment)
        result = deployment.run_level(64, duration=3.0)
        print(*telemetry.slo_report().lines(), sep="\\n")

    With no rules the attachment is observation-only and the run's
    results are bit-identical to an unmonitored run (asserted by
    ``tests/test_telemetry_invariance.py``).
    """

    def __init__(self, rules=(), exemplars: bool = False):
        self.db = TimeSeriesDB()
        self.metrics = MetricsRegistry()
        # Opt-in exemplar store: the latency histogram keeps the worst
        # trace id per bucket so SLO lines link to causal trees.  The
        # run must be traced for records to carry trace ids at all.
        if exemplars:
            from ..causality.exemplars import ExemplarStore
            self.exemplars: Optional["ExemplarStore"] = ExemplarStore()
        else:
            self.exemplars = None
        self.slo = SloSpec()
        self.alerts = AlertManager(self.db, rules, interval=SCRAPE_INTERVAL)
        self.sim = None
        self.agents: List[NodeAgent] = []
        self.meta: Dict[str, object] = {}
        # Client-observed failures reported by the driver/probes: the
        # server never logs these (a timed-out call finishes "OK" after
        # the user has left), so they arrive by notification instead of
        # by scrape.  See SloReport.client_failures.
        self.client_timeouts = 0
        self.client_give_ups = 0

    # -- attachment ------------------------------------------------------

    def attach_web(self, deployment, until: Optional[float] = None) -> None:
        """Monitor a :class:`~repro.web.WebServiceDeployment`."""
        web_by_server = {web.server.name: web
                         for web in deployment.web_nodes}
        self.meta.update(kind="web", platform=deployment.platform,
                         scale=deployment.scale)
        # Let the deployment push client-side outcomes (timeouts,
        # give-ups) to us — they exist only at the client.
        deployment.telemetry = self
        self._attach(deployment.sim, deployment.cluster,
                     web_by_server=web_by_server,
                     meter=deployment.meter, until=until)

    def attach_job(self, runner, until: Optional[float] = None) -> None:
        """Monitor a :class:`~repro.mapreduce.JobRunner`."""
        self.meta.update(kind="job", platform=runner.platform)
        self._attach(runner.sim, runner.cluster,
                     yarn_nodes=runner.yarn.nodes,
                     meter=runner.meter, until=until)

    def _attach(self, sim, cluster, web_by_server=None, yarn_nodes=None,
                meter=None, until: Optional[float] = None) -> None:
        if self.sim is not None:
            raise RuntimeError("telemetry is already attached to a run")
        self.sim = sim
        self.alerts.trace = sim.trace
        web_by_server = web_by_server or {}
        yarn_nodes = yarn_nodes or {}
        for name, server in cluster.servers.items():
            agent = NodeAgent(self, server,
                              web_node=web_by_server.get(name),
                              node_manager=yarn_nodes.get(name))
            self.agents.append(agent)
            sim.process(agent.run(sim, until=until),
                        name=f"telemetry-agent-{name}")
        cluster_agent = ClusterAgent(self, cluster, meter=meter)
        sim.process(cluster_agent.run(sim, until=until),
                    name="telemetry-cluster")
        if self.alerts.rules:
            sim.process(self.alerts.run(sim, until=until),
                        name="telemetry-alerts")

    def note_client_outcomes(self, timeouts: int = 0,
                             give_ups: int = 0) -> None:
        """Record client-observed failures no server-side scrape sees."""
        if timeouts < 0 or give_ups < 0:
            raise ValueError("client outcome counts must be >= 0")
        self.client_timeouts += timeouts
        self.client_give_ups += give_ups

    # -- reports ---------------------------------------------------------

    def slo_report(self) -> SloReport:
        """Availability + latency SLO accounting for the observed run."""
        requests = 0
        errors = 0
        for _labels, series in self.db.select("web_requests_total"):
            if series.values:
                requests += int(series.values[-1])
        for _labels, series in self.db.select("web_errors_total"):
            if series.values:
                errors += int(series.values[-1])
        histogram = self.metrics.histogram("web.delay_s")
        p95 = histogram.percentile(95.0) if histogram.count else None
        worst = None
        if self.exemplars is not None:
            exemplar = self.exemplars.worst()
            if exemplar is not None:
                worst = exemplar.to_dict()
        return SloReport(spec=self.slo, requests=requests, errors=errors,
                         p95_s=p95,
                         client_failures=(self.client_timeouts
                                          + self.client_give_ups),
                         worst_exemplar=worst)

    def detection_report(self) -> DetectionReport:
        """Alert firings scored against the injector's ground truth."""
        records = []
        if self.sim is not None and self.sim.faults is not None:
            records = self.sim.faults.records
        return DetectionReport.match(records, self.alerts.history)

    # -- persistence -----------------------------------------------------

    def bundle(self, meta: Optional[Dict] = None) -> Dict:
        """The whole monitored run as one JSON-friendly dict."""
        merged = dict(self.meta)
        if meta:
            merged.update(meta)
        slo = self.slo_report()
        detection = self.detection_report()
        bundle = {
            "meta": merged,
            "series": self.db.to_dicts(),
            "alerts": [a.to_dict() for a in self.alerts.history],
            "slo": slo.to_dict(),
            "detection": detection.to_dict(),
            "metrics": self.metrics.snapshot(),
        }
        if self.exemplars is not None:
            bundle["exemplars"] = self.exemplars.to_dict()
        return bundle

    def save(self, path: str) -> None:
        """Write the telemetry bundle to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.bundle(), handle, indent=1)

    def alert_lines(self) -> List[str]:
        """Human-readable alert history for CLI summaries."""
        if not self.alerts.history:
            return ["Alerts: none fired"]
        out = [f"Alerts ({len(self.alerts.history)} fired)"]
        for alert in self.alerts.history:
            where = f" on {alert.node}" if alert.node else ""
            if alert.resolved_at is None:
                out.append(f"  {alert.rule}{where}: fired "
                           f"t={alert.fired_at:.2f}s, still active")
            else:
                out.append(f"  {alert.rule}{where}: fired "
                           f"t={alert.fired_at:.2f}s, resolved "
                           f"t={alert.resolved_at:.2f}s")
        return out
