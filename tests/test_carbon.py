"""Tests for repro.carbon: grid traces, deferral policies, the
suspend-resume governor, and the committed eight-arm day."""

import dataclasses
import os

import pytest

from repro.carbon import (CarbonDayPlan, CarbonJobSpec, CarbonScheduler,
                          SignalTrace, carbon_experiment,
                          evening_peak_price, grid_impact, make_policy,
                          run_policy_day, solar_dip_intensity)
from repro.energy import GridImpact
from repro.faults import FaultInjector
from repro.mapreduce import JobRunner

DAY = 7200.0
PLAN_PATH = os.path.join(os.path.dirname(__file__), "..", "experiments",
                         "carbon_day.json")

TS_EST = {"edison": 165.0, "dell": 35.0}


def flat_trace(value: float, unit: str = "gCO2/kWh") -> SignalTrace:
    return SignalTrace(name="flat", unit=unit, points=((0.0, value),))


def tiny_job(name: str = "ts", release: float = 100.0,
             deadline: float = 6000.0) -> CarbonJobSpec:
    return CarbonJobSpec(name, "terasort-mini", release, deadline, TS_EST)


# -- traces -------------------------------------------------------------------

def test_trace_validation():
    with pytest.raises(ValueError):
        SignalTrace("x", "u", points=())
    with pytest.raises(ValueError):
        SignalTrace("x", "u", points=((0.0, 1.0), (0.0, 2.0)))
    with pytest.raises(ValueError):
        SignalTrace("x", "u", points=((0.0, -1.0),))
    with pytest.raises(ValueError):
        SignalTrace("x", "u", points=((0.0, 1.0),), interpolation="cubic")
    with pytest.raises(ValueError):
        SignalTrace("x", "u", points=((0.0, 1.0), (10.0, 2.0)),
                    period_s=10.0)


def test_step_trace_holds_until_next_point():
    trace = SignalTrace("x", "u", points=((10.0, 100.0), (20.0, 200.0)))
    assert trace.at(0.0) == 100.0       # first value covers earlier times
    assert trace.at(10.0) == 100.0
    assert trace.at(19.9) == 100.0
    assert trace.at(20.0) == 200.0
    assert trace.at(99.0) == 200.0      # last value holds


def test_linear_trace_interpolates():
    trace = SignalTrace("x", "u", points=((0.0, 100.0), (10.0, 200.0)),
                        interpolation="linear")
    assert trace.at(5.0) == pytest.approx(150.0)
    assert trace.at(10.0) == 200.0


def test_periodic_trace_wraps():
    trace = SignalTrace("x", "u", points=((0.0, 1.0), (50.0, 2.0)),
                        period_s=100.0)
    assert trace.at(125.0) == 1.0
    assert trace.at(175.0) == 2.0


def test_percentile_is_time_weighted():
    # Value 1 for 90% of the span, value 100 for 10%: the median must
    # be 1 no matter that the points are 50/50.
    trace = SignalTrace("x", "u", points=((0.0, 1.0), (90.0, 100.0)),
                        period_s=100.0)
    assert trace.percentile(50, step_s=1.0) == 1.0
    assert trace.percentile(95, step_s=1.0) == 100.0


def test_next_at_or_below_scans_forward():
    trace = SignalTrace("x", "u", points=((0.0, 500.0), (100.0, 100.0)))
    assert trace.next_at_or_below(200.0, 0.0, horizon_s=500.0,
                                  step_s=10.0) == 100.0
    assert trace.next_at_or_below(200.0, 0.0, horizon_s=50.0,
                                  step_s=10.0) is None


def test_step_trace_steps_are_exact():
    trace = SignalTrace("x", "u", points=((0.0, 1.0), (100.0, 2.0),
                                          (200.0, 3.0)))
    assert trace.steps(50.0, 150.0) == [(50.0, 1.0), (100.0, 2.0)]


def test_trace_roundtrip(tmp_path):
    trace = solar_dip_intensity(DAY)
    path = str(tmp_path / "trace.json")
    trace.save(path)
    assert SignalTrace.load(path) == trace


def test_synthetic_shapes_have_the_advertised_shape():
    intensity = solar_dip_intensity(DAY)
    assert intensity.at(0.41 * DAY) < intensity.at(0.1 * DAY)   # solar dip
    assert intensity.at(0.85 * DAY) > intensity.at(0.5 * DAY)   # evening
    price = evening_peak_price(DAY)
    assert price.at(0.8 * DAY) > price.at(0.1 * DAY)


# -- job specs ----------------------------------------------------------------

def test_jobspec_validation():
    with pytest.raises(ValueError):
        CarbonJobSpec("x", "no-such-kind", 0.0, 10.0)
    with pytest.raises(ValueError):
        CarbonJobSpec("x", "terasort-mini", 10.0, 10.0)
    with pytest.raises(ValueError):
        CarbonJobSpec("x", "terasort-mini", 0.0, 10.0,
                      est_s={"edison": -1.0})


def test_jobspec_builds_a_real_job():
    job = tiny_job()
    spec, config = job.build("edison")
    assert spec.map_tasks == 16
    assert spec.name == "terasort-mini"
    assert config.node_vcores >= 1
    assert job.estimate("edison") == 165.0
    assert job.slack_s("edison") == pytest.approx(5900.0 - 165.0)
    with pytest.raises(KeyError):
        job.estimate("mainframe")


def test_jobspec_roundtrip():
    job = tiny_job()
    assert CarbonJobSpec.from_dict(job.to_dict()) == job


# -- policies -----------------------------------------------------------------

def test_policy_spec_validation():
    # A policy is named by its kind alone; unknown kinds fail loudly,
    # both when built and when a plan lists them.
    with pytest.raises(ValueError, match="psychic"):
        make_policy("psychic", flat_trace(100.0))
    plan = CarbonDayPlan.load(PLAN_PATH)
    with pytest.raises(ValueError, match="psychic"):
        dataclasses.replace(plan, policies=("edd", "psychic"))
    with pytest.raises(ValueError, match="duplicate"):
        dataclasses.replace(plan, policies=("edd", "edd"))


def test_edd_picks_earliest_deadline():
    policy = make_policy("edd", flat_trace(100.0))
    late = tiny_job("late", release=0.0, deadline=5000.0)
    soon = tiny_job("soon", release=10.0, deadline=3000.0)
    assert policy.pick([late, soon]) is soon
    # no-wait ignores deadlines: FIFO at release.
    fifo = make_policy("no-wait", flat_trace(100.0))
    assert fifo.pick([late, soon]) is late


def test_threshold_policy_waits_for_the_dip():
    intensity = SignalTrace("x", "gCO2/kWh",
                            points=((0.0, 500.0), (1000.0, 100.0)),
                            period_s=DAY)
    policy = make_policy("threshold", intensity)
    job = tiny_job(release=0.0, deadline=6000.0)
    start = policy.earliest_start(job, 0.0, "edison")
    assert start == pytest.approx(1000.0, abs=31.0)   # waits for the dip
    # Already clean: start immediately.
    assert policy.earliest_start(job, 1500.0, "edison") == 1500.0
    # Deadline guard: never waits past deadline - safety * estimate.
    tight = tiny_job(release=0.0, deadline=700.0)
    assert policy.earliest_start(tight, 0.0, "edison") \
        <= 700.0 - 1.2 * 165.0
    # No dip inside the guard: waiting buys nothing, start now.
    dirty = SignalTrace("x", "gCO2/kWh", points=((0.0, 500.0),))
    stuck = make_policy("threshold", dirty)
    assert stuck.earliest_start(job, 123.0, "edison") == 123.0


# -- suspend/resume mechanics -------------------------------------------------

def test_suspend_resume_mid_job_completes_without_fault_records():
    """Park the fleet during the in-flight shuffle leg and come back."""
    job = tiny_job()
    spec, config = job.build("edison")
    plain = JobRunner("edison", 4, config=config, seed=11).run(spec)

    runner = JobRunner("edison", 4, config=config, seed=11)
    injector = FaultInjector(runner.cluster)

    def parker():
        # 60% through the plain runtime the reduce/shuffle wave is in
        # flight (slowstart starts shuffling long before maps finish).
        yield 0.6 * plain.seconds
        runner.suspend_workers()
        yield 120.0
        yield from runner.resume_workers(boot_s=8.0)

    runner.sim.process(parker(), name="parker")
    parked = runner.run(spec)
    assert parked.seconds > plain.seconds + 120.0
    assert parked.joules > 0
    # Admin states write no FaultRecords and accrue no downtime.
    assert injector.records == []
    assert injector.downtime("edison-0") == 0.0
    # Parked means dark: the meter reads 0 W mid-suspension.
    mid = 0.6 * plain.seconds + 60.0
    assert parked.timeline.power_w.at(mid) == 0.0


def test_suspend_requires_an_injector():
    runner = JobRunner("edison", 2, seed=1)
    with pytest.raises(RuntimeError):
        runner.suspend_workers()
    with pytest.raises(RuntimeError):
        list(runner.resume_workers(1.0))
    with pytest.raises(ValueError):
        list(runner.resume_workers(-1.0))


# -- ledger and grid impact ---------------------------------------------------

def test_grid_impact_flat_signals_reduce_to_plain_energy():
    # 100 W for 3600 s = 0.1 kWh; at 400 g/kWh and $0.10/kWh.
    pairs = [(0.0, 100.0), (3600.0, 100.0)]
    impact = grid_impact(pairs, 0.0, flat_trace(400.0),
                         flat_trace(0.10, unit="usd/kWh"))
    assert impact.grams_co2 == pytest.approx(40.0)
    assert impact.energy_usd == pytest.approx(0.01)


def test_grid_impact_moves_with_the_day_clock():
    intensity = SignalTrace("x", "gCO2/kWh",
                            points=((0.0, 500.0), (1000.0, 100.0)))
    price = flat_trace(0.10, unit="usd/kWh")
    pairs = [(0.0, 100.0), (100.0, 100.0)]
    dirty = grid_impact(pairs, 0.0, intensity, price)
    clean = grid_impact(pairs, 2000.0, intensity, price)
    assert clean.grams_co2 == pytest.approx(dirty.grams_co2 / 5.0)
    assert clean.energy_usd == pytest.approx(dirty.energy_usd)


def test_grid_impact_adds():
    total = (GridImpact(grams_co2=1.0, energy_usd=0.5)
             + GridImpact(grams_co2=2.0, energy_usd=0.25))
    assert total.grams_co2 == 3.0
    assert total.energy_usd == 0.75
    with pytest.raises(ValueError):
        GridImpact(grams_co2=-1.0)


# -- the scheduler ------------------------------------------------------------

def test_no_wait_arm_is_bit_identical_to_plain_runs():
    """The deferral queue must be a pure front end: the no-wait arm's
    runs are float-for-float the plain ``JobRunner`` runs."""
    job = tiny_job(release=50.0)
    spec, config = job.build("edison")
    plain = JobRunner("edison", 4, config=config, seed=123).run(spec)
    ledger = run_policy_day(
        "edison", 4, "no-wait", [job],
        solar_dip_intensity(DAY), evening_peak_price(DAY), seed=123)
    record = ledger.records[0]
    assert record.start_s == 50.0                 # at release, not before
    assert record.seconds == plain.seconds        # exact, not approx
    assert record.joules == plain.joules
    assert record.deadline_met


def test_threshold_arm_defers_into_the_dip_and_meets_deadlines():
    intensity = solar_dip_intensity(DAY)
    jobs = [tiny_job("a", release=600.0, deadline=6000.0),
            tiny_job("b", release=900.0, deadline=6000.0)]
    scheduler = CarbonScheduler(
        "edison", 4, "threshold", intensity, evening_peak_price(DAY),
        seed=123)
    ledger = scheduler.run_day(jobs)
    threshold = intensity.percentile(40.0)
    for record in ledger.records:
        assert intensity.at(record.start_s) <= threshold
        assert record.deadline_met
        assert record.wait_s > 0
    assert ledger.deadline_misses == 0


def test_suspend_resume_arm_parks_and_still_meets_deadlines():
    intensity = solar_dip_intensity(DAY)
    job = tiny_job(release=600.0, deadline=6000.0)
    ledger = run_policy_day(
        "edison", 4, "suspend-resume", [job], intensity, evening_peak_price(DAY), seed=123)
    record = ledger.records[0]
    assert record.suspensions >= 1
    assert record.suspended_s > 0
    assert record.deadline_met
    # The action log pairs suspends with resumes, on the day clock.
    actions = [a.action for a in ledger.actions]
    assert actions.count("suspend") == actions.count("resume")
    assert ledger.actions[0].time > 600.0


# -- the committed day --------------------------------------------------------

@pytest.fixture(scope="module")
def committed_report():
    plan = CarbonDayPlan.load(PLAN_PATH)
    return plan, carbon_experiment(plan)


def test_committed_day_loads_and_roundtrips():
    # The byte-for-byte round trip is test_records.py's, for every day.
    plan = CarbonDayPlan.load(PLAN_PATH)
    assert set(plan.policies) == {
        "no-wait", "edd", "threshold", "suspend-resume"}
    assert {j.kind for j in plan.jobs} == {"terasort-mini", "wikidb-scan"}


def test_committed_day_headline(committed_report):
    """The ISSUE acceptance claim: a waiting or suspend-resume policy
    beats no-wait on grams CO2 at zero deadline misses."""
    _, report = committed_report
    for platform in ("edison", "dell"):
        dominating = report.dominating_policies[platform]
        assert set(dominating) & {"threshold", "suspend-resume"}, platform
        for policy in dominating:
            arm = report.arm(policy, platform)
            assert arm.deadline_misses == 0
            assert arm.grams_co2 < report.arm("no-wait",
                                              platform).grams_co2


def test_committed_day_edison_vs_r620_delta(committed_report):
    """The paper's platform gap, restated in grams: the R620 day emits
    a multiple of the Edison day's CO2, at release and at best."""
    _, report = committed_report
    delta = report.platform_delta()
    assert delta is not None
    assert delta["no_wait_ratio"] > 2.0
    assert delta["best_ratio"] > 2.0
    assert delta["edison_grams_saved"] > 0
    assert delta["dell_grams_saved"] > 0
    # And the report states it.
    assert any("Edison vs R620" in line for line in report.lines())


def test_committed_day_report_roundtrip(committed_report):
    _, report = committed_report
    from repro.carbon import CarbonReport
    again = CarbonReport.from_dict(report.to_dict())
    assert again.platform_delta() == report.platform_delta()
    assert [a.label for a in again.arms] == [a.label for a in report.arms]


def test_report_lines_show_all_four_policies(committed_report):
    _, report = committed_report
    text = "\n".join(report.lines())
    for policy in ("no-wait", "edd", "threshold", "suspend-resume"):
        assert policy in text
    assert "grams CO2" in text
    assert "verdict" in text
