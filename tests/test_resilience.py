"""Tests for repro.resilience: breaker mechanics, the energy ledger, waste pricing, seeded backoff, off-path bit-identity, and the two
gray-failure mitigations (LATE speculation, web hedging/shedding) —
plus overlapping faults on one node and client-side failures in the
SLO arithmetic."""

import json
import os

import pytest

from repro.cluster import edison_cluster
from repro.faults import FaultInjector, FaultPlan
from repro.faults.models import cpu_throttle, node_crash, packet_loss
from repro.mapreduce import JOB_FACTORIES, JobRunner
from repro.energy import OverheadLedger
from repro.resilience import (LEDGER_CATEGORIES, LEDGER_COUNTERS,
                              CircuitBreaker)
from repro.resilience.breaker import (COOLDOWN_S, FAILURE_THRESHOLD,
                                      SLOW_CALL_S)
from repro.resilience.report import job_gray_plan, web_gray_plan
from repro.sim import Simulation, backoff_delay
from repro.telemetry import SloReport, SloSpec, Telemetry
from repro.web import WebServiceDeployment

EXPERIMENTS = os.path.join(os.path.dirname(__file__), "..", "experiments")


# -- circuit breaker ----------------------------------------------------------

def make_breaker(sim):
    return CircuitBreaker(sim, "backend")


def trip(breaker):
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure()


def test_breaker_trips_at_consecutive_failure_threshold():
    sim = Simulation()
    breaker = make_breaker(sim)
    assert breaker.allow()
    breaker.record_failure()
    breaker.record_success()        # success resets the consecutive count
    for _ in range(FAILURE_THRESHOLD - 1):
        breaker.record_failure()
    assert breaker.state == "closed"
    breaker.record_failure()        # the threshold-th consecutive one
    assert breaker.state == "open"
    assert breaker.open_count == 1
    assert not breaker.allow()


def test_breaker_half_open_admits_one_probe_then_closes():
    sim = Simulation()
    breaker = make_breaker(sim)
    trip(breaker)
    sim.run(until=COOLDOWN_S / 2)
    assert not breaker.allow()      # still cooling down
    sim.run(until=COOLDOWN_S * 1.5)
    assert breaker.allow()          # the single half-open probe
    assert breaker.state == "half_open"
    assert not breaker.allow()      # probe slot already claimed
    breaker.record_success(duration_s=0.1)
    assert breaker.state == "closed"
    assert breaker.allow()


def test_breaker_probe_failure_restarts_cooldown():
    sim = Simulation()
    breaker = make_breaker(sim)
    trip(breaker)
    sim.run(until=COOLDOWN_S * 1.5)
    assert breaker.allow()
    breaker.record_failure()        # probe failed
    assert breaker.state == "open"
    assert breaker.open_count == 2
    assert breaker.opened_at == COOLDOWN_S * 1.5
    assert not breaker.allow()


def test_breaker_slow_success_counts_as_failure():
    sim = Simulation()
    breaker = make_breaker(sim)
    # Gray failures answer 200 but late: slow successes alone must trip.
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_success(duration_s=SLOW_CALL_S)
    assert breaker.state == "open"
    # An un-timed success never counts against the breaker.
    breaker = make_breaker(sim)
    for _ in range(10):
        breaker.record_success()
    assert breaker.state == "closed"


# -- the energy ledger --------------------------------------------------------

def resilience_ledger():
    return OverheadLedger(LEDGER_CATEGORIES, LEDGER_COUNTERS)


def test_ledger_charges_by_category_and_node():
    sim = Simulation()
    cluster = edison_cluster(sim, nodes=2)
    web0, web1 = (cluster.servers[f"edison-{i}"] for i in range(2))
    ledger = resilience_ledger()
    ledger.charge("hedge", seconds=2.0, watts=web0.marginal_vcore_watts())
    ledger.charge("hedge", seconds=1.0, watts=web1.marginal_vcore_watts())
    ledger.charge("speculation", seconds=10.0, watts=0.5)
    watts = web0.marginal_vcore_watts()
    assert web1.marginal_vcore_watts() == pytest.approx(watts)
    assert ledger.joules["hedge"] == pytest.approx(3.0 * watts)
    assert ledger.joules["speculation"] == pytest.approx(5.0)
    assert sum(ledger.joules.values()) == pytest.approx(3.0 * watts + 5.0)
    assert tuple(ledger.joules) == LEDGER_CATEGORIES
    assert tuple(ledger.counters) == LEDGER_COUNTERS
    assert ledger.counters["hedges"] == 0


def test_ledger_rejects_bad_charges():
    ledger = resilience_ledger()
    with pytest.raises(ValueError):
        ledger.charge("gremlin", seconds=1.0, watts=1.0)
    with pytest.raises(ValueError):
        ledger.charge("hedge", seconds=-1.0, watts=1.0)
    with pytest.raises(ValueError):
        ledger.charge("hedge", seconds=1.0, watts=-1.0)
    with pytest.raises(KeyError):
        ledger.count("gremlins")
    assert sum(ledger.joules.values()) == 0.0
    assert tuple(ledger.joules) == LEDGER_CATEGORIES


# -- waste pricing ------------------------------------------------------------

def test_marginal_vcore_watts_matches_linear_power_model():
    sim = Simulation()
    cluster = edison_cluster(sim, 1)
    server = cluster.servers["edison-0"]
    power = server.spec.power
    expected = (power.max_w - power.min_w) / server.cpu.spec.vcores
    assert server.marginal_vcore_watts() == pytest.approx(expected)
    assert expected > 0


# -- seeded backoff (satellite: shared jitter helpers) ------------------------

def test_backoff_delay_grows_caps_and_stays_seeded():
    import random
    # 50 ms doubling per attempt, clamped at the 1 s cap, each draw
    # scaled into [0.5, 1] and reproducible from the seed.
    draws_a = [backoff_delay(random.Random(11), n) for n in range(8)]
    draws_b = [backoff_delay(random.Random(11), n) for n in range(8)]
    assert draws_a == draws_b
    for n, delay in enumerate(draws_a):
        nominal = min(1.0, 0.05 * 2 ** n)
        assert nominal * 0.5 <= delay <= nominal
    # One seed draws one factor, so the schedule doubles until the cap.
    assert draws_a[3] == pytest.approx(8 * draws_a[0])
    assert draws_a[5] == draws_a[7] == pytest.approx(20 * draws_a[0])


def test_backoff_delay_validation():
    import random
    rng = random.Random(1)
    with pytest.raises(ValueError):
        backoff_delay(rng, -1)


# -- overlapping faults on one node (satellite) -------------------------------

def test_crash_during_crash_is_one_continuous_outage():
    sim = Simulation()
    cluster = edison_cluster(sim, 2)
    injector = FaultInjector(cluster, FaultPlan(faults=(
        node_crash("edison-0", at=1.0, repair_s=4.0),
        node_crash("edison-0", at=2.0, repair_s=1.0))))
    server = cluster.servers["edison-0"]
    util = server.utilization_window()
    sim.run(until=2.5)               # both faults active
    assert not injector.is_up("edison-0")
    assert injector.node_watts(server, util) == server.spec.power.min_w
    sim.run(until=3.5)               # inner crash repaired, outer continues
    assert not injector.is_up("edison-0")
    sim.run()
    assert injector.is_up("edison-0")
    # One continuous outage from t=1 to t=5, not two overlapping spans.
    assert injector.downtime("edison-0") == pytest.approx(4.0)
    assert len(injector.records) == 2


def test_nic_degrade_and_packet_loss_stack_multiplicatively():
    sim = Simulation()
    cluster = edison_cluster(sim, 2)
    tx, rx = cluster.topology.nic_segments("edison-0")
    base_tx, base_rx = tx.capacity_Bps, rx.capacity_Bps
    # A half-rate NIC degradation (a 50% loss) with a 30% loss on top.
    FaultInjector(cluster, FaultPlan(faults=(
        packet_loss("edison-0", at=0.5, duration=2.0, loss=0.5),
        packet_loss("edison-0", at=1.0, duration=1.0, loss=0.3))))
    sim.run(until=1.5)               # both active: 0.5 * (1 - 0.3)
    assert tx.capacity_Bps == pytest.approx(base_tx * 0.35)
    assert rx.capacity_Bps == pytest.approx(base_rx * 0.35)
    sim.run(until=2.2)               # second loss ended, degrade continues
    assert tx.capacity_Bps == pytest.approx(base_tx * 0.5)
    sim.run()
    # Bit-identical restore after the stack fully unwinds.
    assert tx.capacity_Bps == base_tx
    assert rx.capacity_Bps == base_rx


def test_stacked_cpu_throttles_compose_and_restore_exactly():
    sim = Simulation()
    cluster = edison_cluster(sim, 1)
    cpu = cluster.servers["edison-0"].cpu
    FaultInjector(cluster, FaultPlan(faults=(
        cpu_throttle("edison-0", at=0.5, duration=2.0, factor=0.5),
        cpu_throttle("edison-0", at=1.0, duration=1.0, factor=0.2))))
    sim.run(until=1.5)
    assert cpu.throttle == pytest.approx(0.1)
    sim.run(until=2.2)
    assert cpu.throttle == pytest.approx(0.5)
    sim.run()
    assert cpu.throttle == 1.0       # exact nominal, not 0.5/0.5*0.2/0.2


# -- client-side failures in the SLO ledger (satellite) -----------------------

def test_slo_client_failures_count_as_request_and_error():
    spec = SloSpec(availability_target=0.999, latency_p95_s=3.0)
    clean = SloReport(spec=spec, requests=10_000, errors=0, p95_s=0.1)
    assert clean.availability == 1.0
    assert clean.availability_met
    # 12 give-ups only the client saw: each adds one request AND one
    # error, so availability drops below the three-nines target.
    report = SloReport(spec=spec, requests=10_000, errors=0, p95_s=0.1,
                       client_failures=12)
    assert report.total_requests == 10_012
    assert report.total_errors == 12
    assert report.availability == pytest.approx(1.0 - 12 / 10_012)
    assert not report.availability_met
    assert report.error_budget == 10   # int(10_012 * 0.001)
    assert report.budget_consumed == pytest.approx(12 / 10)
    assert any("12 client-side failures" in line for line in report.lines())


def test_slo_report_roundtrip_keeps_client_failures():
    spec = SloSpec()
    report = SloReport(spec=spec, requests=100, errors=2, p95_s=0.5,
                       client_failures=3)
    again = SloReport.from_dict(report.to_dict())
    assert again == report
    # Dicts written before the field existed default to zero.
    legacy = report.to_dict()
    del legacy["client_failures"]
    assert SloReport.from_dict(legacy).client_failures == 0


def test_telemetry_note_client_outcomes():
    telemetry = Telemetry()
    telemetry.note_client_outcomes(timeouts=2, give_ups=1)
    assert telemetry.slo_report().client_failures == 3
    with pytest.raises(ValueError):
        telemetry.note_client_outcomes(timeouts=-1)


# -- the committed gray-failure plans -----------------------------------------

def test_committed_gray_plan_json_matches_builders():
    """experiments/gray_failures.json is the builders' output verbatim,
    so the CI smoke replays exactly what the code would generate."""
    with open(os.path.join(EXPERIMENTS, "gray_failures.json"),
              encoding="utf-8") as handle:
        committed = json.load(handle)
    web_nodes = [f"web-{i}" for i in range(5)]
    job_nodes = [f"edison-slave-{i}" for i in range(3)]
    assert FaultPlan.from_dict(committed["web"]) == web_gray_plan(web_nodes)
    assert FaultPlan.from_dict(committed["job"]) == job_gray_plan(job_nodes)
    with pytest.raises(ValueError):
        web_gray_plan(web_nodes[:4])
    with pytest.raises(ValueError):
        job_gray_plan(job_nodes[:2])


# -- mitigations under gray faults (integration) ------------------------------

def test_web_mitigations_engage_and_charge_the_ledger():
    def run(resilience):
        deployment = WebServiceDeployment("edison", "1/8", seed=7,
                                          resilience=resilience)
        deployment.attach_faults(FaultPlan(faults=(
            cpu_throttle("web-0", at=0.5, duration=100.0, factor=0.08),)))
        level = deployment.run_level(24, duration=6.0, warmup=0.5)
        return deployment, level

    unmitigated, level_u = run(False)
    mitigated, level_m = run(True)
    assert unmitigated.resilience_ledger is None
    ledger = mitigated.resilience_ledger
    assert ledger is not None
    # Hedging reaps the throttled backend's slow calls, shedding keeps
    # its queue bounded — and both charge their joules to the ledger.
    assert ledger.counters["hedges"] > 0
    assert ledger.counters["hedge_wins"] > 0
    assert ledger.counters["sheds"] > 0
    assert ledger.joules["hedge"] > 0
    assert level_m.mean_delay_s < 3.0
    assert level_m.ok_calls >= level_u.ok_calls


def test_late_speculation_contains_a_persistent_straggler():
    """One slave of four stuck at 8% clock on the single-wave job:
    speculative twins must beat waiting out the limper by a wide
    margin, and every duplicate second lands on the ledger."""
    def run(resilience):
        spec, config = JOB_FACTORIES["wordcount2"]("edison", 4)
        runner = JobRunner("edison", 4, config=config, seed=7,
                           resilience=resilience)
        FaultInjector(runner.cluster, FaultPlan(faults=(
            cpu_throttle("edison-slave-0", at=30.0, duration=1e9,
                         factor=0.08),)))
        return runner, runner.run(spec)

    _, report_u = run(False)
    runner_m, report_m = run(True)
    assert report_m.seconds < report_u.seconds / 2
    ledger = runner_m.resilience_ledger
    assert ledger.counters["speculative_launches"] >= 1
    assert ledger.counters["speculative_wins"] >= 1
    assert ledger.joules["speculation"] > 0
