"""Tests for repro.telemetry: TSDB, rules, SLO/detection, exporters."""

import json

import pytest

from repro.telemetry import (AbsenceRule, Alert, AlertManager, DetectionReport,
                             SloReport, SloSpec, SpreadRule, Telemetry,
                             TimeSeriesDB, default_rules, load_bundle,
                             render_dashboard, summary_lines, to_prometheus)
from repro.web import WebServiceDeployment


# -- TimeSeriesDB -------------------------------------------------------------

def test_db_series_keyed_by_name_and_labels():
    db = TimeSeriesDB()
    db.record(0.0, "cpu", 0.5, node="a")
    db.record(0.0, "cpu", 0.9, node="b")
    db.record(0.0, "mem", 0.1, node="a")
    assert len(db) == 3
    assert db.names() == ["cpu", "mem"]
    assert db.last("cpu", node="a") == (0.0, 0.5)
    assert db.last("cpu", node="c") is None


def test_db_select_matches_label_subset():
    db = TimeSeriesDB()
    db.record(0.0, "cpu", 0.5, node="a", role="web")
    db.record(0.0, "cpu", 0.9, node="b", role="db")
    assert len(db.select("cpu")) == 2
    only_web = db.select("cpu", role="web")
    assert len(only_web) == 1
    assert only_web[0][0]["node"] == "a"


def test_db_query_delegation():
    db = TimeSeriesDB()
    for i in range(4):
        db.record(float(i), "reqs", 10.0 * i, node="a")
    assert db.rate("reqs", node="a") == pytest.approx(10.0)
    assert db.avg_over_time("reqs", node="a") == pytest.approx(15.0)
    assert db.rate("reqs", node="missing") == 0.0
    assert db.avg_over_time("reqs", node="missing") is None


def test_db_dict_roundtrip():
    db = TimeSeriesDB()
    db.record(0.25, "cpu", 0.5, node="a")
    db.record(0.5, "cpu", 0.75, node="a")
    clone = TimeSeriesDB.from_dicts(db.to_dicts())
    assert clone.last("cpu", node="a") == (0.5, 0.75)
    assert len(clone) == len(db)


# -- rules --------------------------------------------------------------------

def test_absence_rule_detects_silence():
    db = TimeSeriesDB()
    db.record(0.0, "up", 1.0, node="a")
    db.record(5.0, "up", 1.0, node="b")
    rule = AbsenceRule(name="silent", stale_s=2.0)
    breaches = rule.breaches(db, 5.0)
    assert breaches == [("a", 5.0)]


def test_spread_rule_flags_hot_node():
    db = TimeSeriesDB()
    for t in (0.0, 1.0):
        db.record(t, "cpu", 0.9, node="hot")
        db.record(t, "cpu", 0.1, node="cold")
    rule = SpreadRule(name="imbalance", metric="cpu", threshold=0.5)
    assert rule.breaches(db, 1.0) == [("hot", pytest.approx(0.8))]
    # One node alone cannot be imbalanced.
    solo = TimeSeriesDB()
    solo.record(0.0, "cpu", 0.9, node="only")
    assert rule.breaches(solo, 0.0) == []


def _cpu(db, t, hot, cold):
    db.record(t, "cpu", hot, node="hot")
    db.record(t, "cpu", cold, node="cold")


def _imbalance(for_s):
    # A window shorter than the sample spacing reads each sample alone.
    return SpreadRule(name="imbalance", metric="cpu", threshold=0.5,
                      window_s=0.1, for_s=for_s)


def test_alert_manager_lifecycle_pending_firing_resolved():
    db = TimeSeriesDB()
    manager = AlertManager(db, [_imbalance(for_s=1.0)], interval=0.5)
    _cpu(db, 0.0, 0.9, 0.1)                     # imbalanced from t=0
    assert manager.evaluate(0.0) == []          # pending, not yet for_s
    assert manager.active() == []
    _cpu(db, 1.0, 0.9, 0.1)
    fired = manager.evaluate(1.0)               # breached for 1.0s -> fires
    assert len(fired) == 1 and fired[0].node == "hot"
    assert manager.active() == fired
    _cpu(db, 2.0, 0.1, 0.1)
    manager.evaluate(2.0)                       # condition lifted
    assert manager.active() == []
    assert manager.history[0].resolved_at == 2.0
    assert manager.history[0].duration_s == pytest.approx(1.0)


def test_alert_manager_pending_resets_when_condition_clears():
    db = TimeSeriesDB()
    manager = AlertManager(db, [_imbalance(for_s=2.0)], interval=1.0)
    _cpu(db, 0.0, 0.9, 0.1)
    manager.evaluate(0.0)
    _cpu(db, 1.0, 0.1, 0.1)
    manager.evaluate(1.0)                       # clears the pending timer
    for t in (2.0, 3.0, 4.0):
        _cpu(db, t, 0.9, 0.1)                   # imbalanced again from t=2
    assert manager.evaluate(2.0) == []
    assert manager.evaluate(3.0) == []          # only 1s into the new breach
    assert len(manager.evaluate(4.0)) == 1


def test_traced_run_records_alert_firings_as_instants():
    from repro.faults import single_node_kill
    from repro.trace import Tracer
    tracer = Tracer()
    telemetry = Telemetry(rules=default_rules())
    deployment = WebServiceDeployment("edison", "1/8", seed=3, trace=tracer)
    deployment.attach_faults(single_node_kill("web-0", 0.5, 1.0))
    telemetry.attach_web(deployment)
    deployment.run_level(16, duration=3.0, warmup=0.5)
    instants = [(e.name, e.attrs["rule"], e.node)
                for e in tracer.log.events(category="telemetry")]
    assert ("alert.fired", "node_silent", "web-0") in instants
    assert ("alert.resolved", "node_silent", "web-0") in instants


def test_alert_manager_rejects_duplicate_rule_names():
    with pytest.raises(ValueError):
        AlertManager(TimeSeriesDB(), [
            AbsenceRule(name="same"),
            SpreadRule(name="same", metric="m", threshold=1.0)])


# -- SLO + detection reports --------------------------------------------------

def test_slo_report_arithmetic():
    report = SloReport(spec=SloSpec(availability_target=0.99,
                                    latency_p95_s=1.0),
                       requests=1000, errors=5, p95_s=0.5)
    assert report.availability == pytest.approx(0.995)
    assert report.error_budget == 10
    assert report.budget_consumed == pytest.approx(0.5)
    assert report.availability_met and report.latency_met
    missed = SloReport(spec=SloSpec(availability_target=0.999),
                       requests=1000, errors=5, p95_s=4.0)
    assert not missed.availability_met and not missed.latency_met
    assert any("MISSED" in line for line in missed.lines())


def test_slo_report_empty_run():
    report = SloReport(spec=SloSpec(), requests=0, errors=0, p95_s=None)
    assert report.availability is None
    assert report.availability_met is None
    assert report.lines()   # still renders


def test_slo_spec_validation():
    with pytest.raises(ValueError):
        SloSpec(availability_target=0.0)
    with pytest.raises(ValueError):
        SloSpec(latency_p95_s=0.0)


class FakeFault:
    def __init__(self, kind, node, start):
        self.kind, self.node, self.start = kind, node, start


def test_detection_report_matches_first_covering_alert():
    faults = [FakeFault("crash", "n0", 10.0), FakeFault("crash", "n0", 50.0)]
    alerts = [Alert(rule="node_silent", node="n0", fired_at=11.0, value=1.0),
              Alert(rule="node_silent", node="n1", fired_at=12.0, value=1.0),
              Alert(rule="node_silent", node="n0", fired_at=52.0, value=1.0)]
    report = DetectionReport.match(faults, alerts)
    assert report.detected_count == 2
    first, second = report.detections
    assert first.time_to_detect == pytest.approx(1.0)
    assert second.time_to_detect == pytest.approx(2.0)
    assert report.mean_time_to_detect == pytest.approx(1.5)


def test_detection_report_undetected_fault():
    report = DetectionReport.match([FakeFault("crash", "n0", 10.0)], [])
    assert report.detected_count == 0
    assert report.detections[0].time_to_detect is None
    assert any("NOT DETECTED" in line for line in report.lines())


def test_detection_report_alert_consumed_once():
    faults = [FakeFault("crash", "n0", 10.0), FakeFault("crash", "n0", 20.0)]
    alerts = [Alert(rule="r", node="n0", fired_at=25.0, value=1.0)]
    report = DetectionReport.match(faults, alerts)
    # One firing cannot cover two faults.
    assert report.detected_count == 1


# -- a monitored run ----------------------------------------------------------

def monitored_web_run():
    telemetry = Telemetry()
    deployment = WebServiceDeployment("edison", "1/8", seed=3)
    telemetry.attach_web(deployment)
    deployment.run_level(16, duration=1.5, warmup=0.5)
    return telemetry, deployment


def test_scrapers_cover_every_node():
    telemetry, deployment = monitored_web_run()
    up = telemetry.db.select("up")
    assert len(up) == len(deployment.cluster.servers)
    for _labels, series in up:
        assert len(series) >= 5   # 1.5s run at 0.25s cadence
    # Web-tier metrics only exist on web nodes.
    web_series = telemetry.db.select("web_requests_total")
    assert len(web_series) == len(deployment.web_nodes)
    assert telemetry.db.select("cluster_power_w")


def test_monitored_run_slo_report():
    telemetry, _deployment = monitored_web_run()
    report = telemetry.slo_report()
    assert report.requests > 0
    assert report.p95_s is not None and report.p95_s < 3.0
    assert report.availability_met


def test_telemetry_attaches_once():
    telemetry, _deployment = monitored_web_run()
    with pytest.raises(RuntimeError):
        telemetry.attach_web(WebServiceDeployment("edison", "1/8", seed=3))


def test_default_rules_are_valid():
    telemetry = Telemetry(rules=default_rules())
    assert [r.name for r in telemetry.alerts.rules] == \
        ["node_silent", "cpu_imbalance"]


# -- exporters ----------------------------------------------------------------

def test_bundle_roundtrip_and_prometheus(tmp_path):
    telemetry, _deployment = monitored_web_run()
    bundle = telemetry.bundle(meta={"note": "test"})
    assert bundle["meta"]["note"] == "test"
    path = str(tmp_path / "tele.json")
    telemetry.save(path)
    loaded = load_bundle(path)
    assert "note" not in loaded["meta"]
    assert loaded["meta"]["kind"] == "web"
    assert len(loaded["series"]) == len(bundle["series"])

    prom = to_prometheus(loaded)
    assert "# TYPE repro_up gauge" in prom
    assert "# TYPE repro_web_requests_total counter" in prom
    assert 'repro_up{node="web-0"} 1.0' in prom
    # Metric and label names are sanitised to the Prometheus charset.
    assert "web.delay" not in prom


def test_load_bundle_rejects_foreign_json(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ValueError):
        load_bundle(str(path))


def test_dashboard_renders_selfcontained_html():
    telemetry, _deployment = monitored_web_run()
    telemetry.alerts.history.append(
        Alert(rule="demo", node="web-0", fired_at=1.0, value=2.0))
    html = render_dashboard(telemetry.bundle())
    assert html.startswith("<!DOCTYPE html>")
    assert "<svg" in html                    # sparklines are inline SVG
    assert "node_cpu_utilization" in html
    assert "demo" in html                    # the alert row
    assert "<script" not in html             # no JS, attachable anywhere


def test_summary_lines_cover_alerts_and_slo():
    telemetry, _deployment = monitored_web_run()
    lines = summary_lines(telemetry.bundle())
    text = "\n".join(lines)
    assert "Series:" in text
    assert "SLO report" in text
    assert "Alerts: none fired" in text


# -- partition symptoms: dead-vs-unreachable classification -------------------

class FakePartition:
    """A partition record with the injector's member-set semantics."""

    def __init__(self, kind, node, start, members):
        self.kind, self.node, self.start = kind, node, start
        self.members = members

    def covers(self, name):
        return name == self.node or name in self.members


def test_detection_report_classifies_dead_vs_unreachable():
    faults = [FakeFault("crash", "n0", 10.0),
              FakePartition("partition", "rack-0", 30.0, {"n1", "n2"})]
    alerts = [Alert(rule="node_silent", node="n0", fired_at=11.0, value=1.0),
              Alert(rule="node_silent", node="n1", fired_at=31.0, value=1.0),
              Alert(rule="nodes_unreachable", node="n1", fired_at=31.2,
                    value=1.0),
              Alert(rule="nodes_unreachable", node="n2", fired_at=31.2,
                    value=1.0)]
    report = DetectionReport.match(faults, alerts)
    assert report.detected_count == 2
    crash, cut = report.detections
    assert (crash.expected, crash.observed) == ("down", "down")
    # The "silent together" vote outranks the plain dead-node page.
    assert (cut.expected, cut.observed) == ("unreachable", "unreachable")
    assert report.classification_accuracy == pytest.approx(1.0)
    assert report.misclassified == ()
    assert any("[classified unreachable]" in line
               for line in report.lines())


def test_detection_report_flags_misclassified_partition():
    # Only the dead-node rule fires for a severed rack: detected, but
    # called "down" when the ground truth is "unreachable".
    faults = [FakePartition("partition", "rack-0", 10.0, {"n1"})]
    alerts = [Alert(rule="node_silent", node="n1", fired_at=11.0,
                    value=1.0)]
    report = DetectionReport.match(faults, alerts)
    assert report.detected_count == 1
    assert len(report.misclassified) == 1
    assert report.classification_accuracy == 0.0
    assert any("MISCLASSIFIED as down, expected unreachable" in line
               for line in report.lines())
    assert report.to_dict()["misclassified"] == 1
