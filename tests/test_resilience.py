"""Tests for repro.resilience: breaker mechanics, the energy ledger, seeded backoff, off-path bit-identity, and the two
gray-failure mitigations (LATE speculation, web hedging/shedding) —
plus the satellite fixes riding this PR: overlapping faults on one
node, client-side failures in the SLO arithmetic, and the TCP SYN
retry budget past the kernel table."""

import json
import os

import pytest

from repro.cluster import edison_cluster
from repro.faults import FaultInjector, FaultPlan
from repro.faults.models import (cpu_throttle, nic_degrade, node_crash,
                                 packet_loss, power_event)
from repro.mapreduce import JOB_FACTORIES, JobRunner
from repro.net.tcp import SYN_RETRY_DELAYS, ConnectTimeout, TcpListener
from repro.resilience import CircuitBreaker, ResilienceLedger
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

def test_ledger_charges_by_category_and_node():
    ledger = ResilienceLedger()
    ledger.charge("hedge", "web-0", seconds=2.0, watts=1.5)
    ledger.charge("hedge", "web-1", seconds=1.0, watts=1.5)
    ledger.charge("speculation", "web-0", seconds=10.0, watts=0.5)
    assert ledger.waste_joules["hedge"] == pytest.approx(4.5)
    assert ledger.waste_seconds["hedge"] == pytest.approx(3.0)
    assert ledger.total_waste_joules == pytest.approx(9.5)
    assert ledger.node_joules["web-0"] == pytest.approx(8.0)
    costs = ledger.to_mitigation_costs()
    assert costs["hedge"] == pytest.approx(4.5)
    assert costs["speculation"] == pytest.approx(5.0)
    summary = ledger.summary()
    assert summary["total_waste_joules"] == pytest.approx(9.5)
    assert summary["counters"]["hedges"] == 0


def test_ledger_rejects_bad_charges():
    ledger = ResilienceLedger()
    with pytest.raises(ValueError):
        ledger.charge("gremlin", "web-0", seconds=1.0, watts=1.0)
    with pytest.raises(ValueError):
        ledger.charge("hedge", "web-0", seconds=-1.0, watts=1.0)
    with pytest.raises(ValueError):
        ledger.charge("hedge", "web-0", seconds=1.0, watts=-1.0)
    assert ledger.total_waste_joules == 0.0


def test_marginal_vcore_watts_matches_linear_power_model():
    sim = Simulation()
    cluster = edison_cluster(sim, 1)
    server = cluster.servers["edison-0"]
    power = server.spec.power
    expected = (power.max_w - power.min_w) / server.cpu.spec.vcores
    assert ResilienceLedger.marginal_vcore_watts(server) == pytest.approx(
        expected)
    assert expected > 0


# -- seeded backoff (satellite: shared jitter helpers) ------------------------

def test_backoff_delay_grows_caps_and_stays_seeded():
    import random
    rng = random.Random(7)
    # jitter=0 makes the schedule exact: base * 2^n, clamped at the cap.
    assert backoff_delay(rng, 0, 0.1, 10.0, jitter=0.0) == pytest.approx(0.1)
    assert backoff_delay(rng, 3, 0.1, 10.0, jitter=0.0) == pytest.approx(0.8)
    assert backoff_delay(rng, 9, 0.1, 10.0, jitter=0.0) == pytest.approx(10.0)
    # With jitter the draw scales into [1 - jitter, 1] and is
    # reproducible from the seed.
    draws_a = [backoff_delay(random.Random(11), n, 0.1, 10.0, jitter=0.5)
               for n in range(5)]
    draws_b = [backoff_delay(random.Random(11), n, 0.1, 10.0, jitter=0.5)
               for n in range(5)]
    assert draws_a == draws_b
    for n, delay in enumerate(draws_a):
        nominal = min(10.0, 0.1 * 2 ** n)
        assert nominal * 0.5 <= delay <= nominal


def test_backoff_delay_validation():
    import random
    rng = random.Random(1)
    with pytest.raises(ValueError):
        backoff_delay(rng, -1, 0.1, 1.0)
    with pytest.raises(ValueError):
        backoff_delay(rng, 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        backoff_delay(rng, 0, 0.1, 0.0)
    with pytest.raises(ValueError):
        backoff_delay(rng, 0, 0.1, 1.0, jitter=2.0)


# -- TCP SYN retry budget (satellite: clamp fix regression) -------------------

def test_tcp_connect_honors_budget_past_kernel_table():
    """max_retries > len(SYN_RETRY_DELAYS) extends the schedule by
    repeating the final backoff step instead of silently capping."""
    sim = Simulation()
    listener = TcpListener(sim, "srv", max_connections=1, syn_backlog=1)
    outcome = {}

    def holder():
        # Takes the only slot immediately and never releases it.
        yield from listener.connect(rtt=0.0)
        yield 10_000.0

    def waiter():
        yield 0.01
        # Queues on the slot forever, keeping the SYN backlog full.
        yield from listener.connect(rtt=0.0)

    def victim():
        yield 0.02
        start = sim.now
        try:
            yield from listener.connect(rtt=0.0, max_retries=7)
        except ConnectTimeout:
            outcome["waited"] = sim.now - start

    sim.process(holder())
    sim.process(waiter())
    sim.process(victim())
    sim.run(until=100.0)
    # 4 kernel-table steps plus 3 repeats of the final 8 s step.
    expected = sum(SYN_RETRY_DELAYS) + 3 * SYN_RETRY_DELAYS[-1]
    assert outcome["waited"] == pytest.approx(expected)
    assert listener.syn_drops == 8   # initial SYN + 7 retries


# -- overlapping faults on one node (satellite) -------------------------------

def test_crash_during_power_outage_is_one_continuous_outage():
    sim = Simulation()
    cluster = edison_cluster(sim, 2)
    injector = FaultInjector(cluster, FaultPlan(faults=(
        power_event("edison-0", at=1.0, outage_s=4.0, reboot_s=1.0),
        node_crash("edison-0", at=2.0, repair_s=1.0))))
    server = cluster.servers["edison-0"]
    util = server.utilization_window()
    sim.run(until=2.5)               # both faults active
    assert not injector.is_up("edison-0")
    assert injector.node_watts(server, util) == 0.0   # unplugged wins
    sim.run(until=3.5)               # crash repaired, outage continues
    assert not injector.is_up("edison-0")
    assert injector.node_watts(server, util) == 0.0
    sim.run(until=5.5)               # power back, rebooting at idle draw
    assert not injector.is_up("edison-0")
    assert injector.node_watts(server, util) == server.spec.power.min_w
    sim.run()
    assert injector.is_up("edison-0")
    # One continuous outage from t=1 to t=6, not two overlapping spans.
    assert injector.downtime("edison-0") == pytest.approx(5.0)


def test_nic_degrade_and_packet_loss_stack_multiplicatively():
    sim = Simulation()
    cluster = edison_cluster(sim, 2)
    tx, rx = cluster.topology.nic_segments("edison-0")
    base_tx, base_rx = tx.capacity_Bps, rx.capacity_Bps
    FaultInjector(cluster, FaultPlan(faults=(
        nic_degrade("edison-0", at=0.5, duration=2.0, factor=0.5),
        packet_loss("edison-0", at=1.0, duration=1.0, loss=0.3))))
    sim.run(until=1.5)               # both active: 0.5 * (1 - 0.3)
    assert tx.capacity_Bps == pytest.approx(base_tx * 0.35)
    assert rx.capacity_Bps == pytest.approx(base_rx * 0.35)
    sim.run(until=2.2)               # loss ended, degrade continues
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
    assert ledger.waste_joules["hedge"] > 0
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
    assert ledger.waste_joules["speculation"] > 0
