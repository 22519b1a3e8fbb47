"""repro.telemetry — cluster monitoring, alerting and SLO reports.

The monitoring plane for the simulated clusters: per-node scrape
agents (:class:`NodeAgent`) run *inside* the simulation, sampling
hardware utilisation, web-tier counters, YARN occupancy and power into
a labeled in-memory time-series store (:class:`TimeSeriesDB`); an
:class:`AlertManager` evaluates absence/spread rules against
it with a pending→firing→resolved lifecycle; and the run ends with
availability/latency SLO accounting (:class:`SloReport`) plus
time-to-detect scored against the fault injector's ground truth
(:class:`DetectionReport`).  Exporters render the whole bundle as
Prometheus text or a self-contained HTML dashboard whose per-node
sparklines mirror the paper's Figures 12-17.

Attach before running::

    from repro.telemetry import Telemetry, default_rules

    telemetry = Telemetry(rules=default_rules())
    deployment = WebServiceDeployment("edison", "1/8", seed=3)
    telemetry.attach_web(deployment)
    deployment.run_level(64, duration=3.0)
    print(*telemetry.slo_report().lines(), sep="\\n")

Scrapes are pure reads; with no rules attached a monitored run is
bit-identical to an unmonitored one.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".export": ("load_bundle", "render_dashboard", "summary_lines",
                "to_prometheus", "write_dashboard", "write_prometheus"),
    ".rules": ("AbsenceRule", "Alert", "AlertManager", "SpreadRule",
               "default_rules"),
    ".scrapers": ("ClusterAgent", "NodeAgent", "Telemetry"),
    ".slo": ("Detection", "DetectionReport", "SloReport", "SloSpec"),
    ".tsdb": ("TimeSeriesDB",),
})
