"""The telemetry plane's two contract tests.

1. **Bit-identity** — attaching a rule-free :class:`Telemetry` to a run
   must leave its results exactly equal to an unmonitored run, for both
   the web tier and MapReduce.  Scrapers are pure reads: no RNG draws,
   no resource acquisition, no stateful utilisation probes.
2. **Detection beats recovery** — with the stock rules, a node crash
   injected mid-job raises the ``node_silent`` alert *after* the
   injection time and *before* YARN's expiry-driven blacklist, i.e. the
   monitoring plane observes the failure faster than the framework
   reacts to it, with a finite measured time-to-detect.
"""

import pytest

from repro.faults import FaultInjector, single_node_kill
from repro.mapreduce import JobRunner
from repro.telemetry import Telemetry, default_rules
from repro.trace import Tracer
from repro.web import WebServiceDeployment

from tests.test_mapreduce_jobs import small_spec


# -- bit-identity -------------------------------------------------------------

def test_rule_free_telemetry_keeps_web_run_bit_identical():
    plain = WebServiceDeployment("edison", "1/8", seed=3) \
        .run_level(16, duration=1.5, warmup=0.5)
    telemetry = Telemetry()
    deployment = WebServiceDeployment("edison", "1/8", seed=3)
    telemetry.attach_web(deployment)
    monitored = deployment.run_level(16, duration=1.5, warmup=0.5)
    assert monitored == plain            # LevelResult compares exactly
    assert len(telemetry.db) > 0         # ...and telemetry really ran


def test_rule_free_telemetry_keeps_job_run_bit_identical():
    plain = JobRunner("edison", 4, seed=7).run(small_spec())
    telemetry = Telemetry()
    runner = JobRunner("edison", 4, seed=7)
    telemetry.attach_job(runner)
    monitored = runner.run(small_spec())
    assert monitored.seconds == plain.seconds
    assert monitored.joules == plain.joules
    assert monitored.mean_watts == plain.mean_watts
    assert len(telemetry.db) > 0


def test_rules_do_not_perturb_results_either():
    # Rule evaluation is also read-only, so even an alerting telemetry
    # leaves the workload untouched.
    plain = WebServiceDeployment("edison", "1/8", seed=3) \
        .run_level(16, duration=1.5, warmup=0.5)
    telemetry = Telemetry(rules=default_rules())
    deployment = WebServiceDeployment("edison", "1/8", seed=3)
    telemetry.attach_web(deployment)
    assert deployment.run_level(16, duration=1.5, warmup=0.5) == plain


def test_exemplar_telemetry_does_not_perturb_results():
    # Exemplar collection is deterministic bookkeeping over records the
    # scrape already reads — no RNG, no resource touches — so even a
    # traced + exemplar-collecting run stays bit-identical.
    plain = WebServiceDeployment("edison", "1/8", seed=3) \
        .run_level(16, duration=1.5, warmup=0.5)
    telemetry = Telemetry(exemplars=True)
    deployment = WebServiceDeployment("edison", "1/8", seed=3,
                                      trace=Tracer())
    telemetry.attach_web(deployment)
    assert deployment.run_level(16, duration=1.5, warmup=0.5) == plain
    assert len(telemetry.exemplars) > 0


def exemplar_run():
    telemetry = Telemetry(exemplars=True)
    deployment = WebServiceDeployment("edison", "1/8", seed=3,
                                      trace=Tracer())
    telemetry.attach_web(deployment)
    deployment.run_level(16, duration=1.5, warmup=0.5)
    return telemetry


def test_exemplars_are_deterministic_across_identical_runs():
    first = exemplar_run().exemplars.exemplars()
    second = exemplar_run().exemplars.exemplars()
    assert first == second               # same buckets, values, trace ids
    assert all(ex.trace_id > 0 for ex in first)


def test_untraced_run_collects_no_exemplars():
    # Without a tracer, call records carry trace_id 0 and the store
    # must stay empty rather than invent identities.
    telemetry = Telemetry(exemplars=True)
    deployment = WebServiceDeployment("edison", "1/8", seed=3)
    telemetry.attach_web(deployment)
    deployment.run_level(16, duration=1.0, warmup=0.25)
    assert len(telemetry.exemplars) == 0
    assert telemetry.slo_report().worst_exemplar is None


def test_worst_exemplar_reaches_slo_report_and_bundle(tmp_path):
    import json
    telemetry = exemplar_run()
    report = telemetry.slo_report()
    worst = report.worst_exemplar
    assert worst is not None
    store = telemetry.exemplars
    assert worst == store.worst().to_dict()
    assert worst["value"] == max(ex.value for ex in store.exemplars())
    assert any(f"trace {worst['trace_id']}" in line
               for line in report.lines())
    path = str(tmp_path / "bundle.json")
    telemetry.save(path)
    with open(path, encoding="utf-8") as handle:
        bundle = json.load(handle)
    assert bundle["slo"]["worst_exemplar"] == worst
    assert bundle["exemplars"] == store.to_dict()


# -- detection vs recovery ----------------------------------------------------

KILL_AT = 20.0


def crashed_job_run():
    tracer = Tracer()
    runner = JobRunner("edison", 4, seed=7, trace=tracer)
    victim = runner.slave_servers[1].name
    plan = single_node_kill(victim, KILL_AT, repair_s=30.0)
    FaultInjector(runner.cluster, plan, detection_s=0.25)
    telemetry = Telemetry(rules=default_rules())
    telemetry.attach_job(runner)
    report = runner.run(small_spec())
    return telemetry, tracer, victim, report


def test_node_crash_detected_before_yarn_recovers():
    telemetry, tracer, victim, _report = crashed_job_run()

    detection = telemetry.detection_report()
    crash = next(d for d in detection.detections if d.kind == "crash")
    assert crash.node == victim
    assert crash.detected, "node_silent never fired for the crashed node"
    assert crash.rule == "node_silent"

    # Finite, positive time-to-detect: the alert fired after the
    # injected crash time...
    assert crash.time_to_detect is not None
    assert 0.0 < crash.time_to_detect < 5.0

    # ...and before YARN's expiry-driven recovery (the blacklist is the
    # first step of remapping the victim's containers).
    blacklists = [e.ts for e in tracer.log.events(category="yarn",
                                                  name="node.blacklist")]
    assert blacklists, "YARN never blacklisted the crashed node"
    assert crash.detected_at < min(blacklists)


def test_node_silent_alert_resolves_after_repair():
    telemetry, _tracer, victim, _report = crashed_job_run()
    silent = [a for a in telemetry.alerts.history
              if a.rule == "node_silent" and a.node == victim]
    assert len(silent) == 1
    alert = silent[0]
    # Repaired at KILL_AT + 30: the agent resumes scraping and the
    # absence condition clears shortly after.
    assert alert.resolved_at is not None
    assert alert.resolved_at == pytest.approx(KILL_AT + 30.0, abs=2.0)


def test_detection_report_survives_bundle_roundtrip(tmp_path):
    from repro.telemetry import DetectionReport, load_bundle
    telemetry, _tracer, _victim, _report = crashed_job_run()
    path = str(tmp_path / "bundle.json")
    telemetry.save(path)
    loaded = load_bundle(path)
    report = DetectionReport.from_dict(loaded["detection"])
    assert report.detected_count == telemetry.detection_report().detected_count
    assert report.mean_time_to_detect == pytest.approx(
        telemetry.detection_report().mean_time_to_detect)
