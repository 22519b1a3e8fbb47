"""DVFS: P-state tables, governors, the plane, and the scorecard.

The load-bearing contract is bit-identity: with DVFS off (the
default), every P-state table must be invisible — no multiply, no
event, no RNG draw.  The armed paths are then checked for the physics
the package claims: down-clocks stretch service times by ``1/f``,
shrink busy watts by ``f**2``, compose multiplicatively with thermal
throttles, and restore bit-exactly.
"""

import random

import pytest

from repro.dvfs import (
    DvfsConfig, DvfsPlane, LoadPoint, OndemandGovernor,
    PerformanceGovernor, PowersaveGovernor, ProportionalityScorecard,
    attach_web, make_governor, measure_proportionality,
)
from repro.hardware import (
    DELL_R620, EDISON, Cpu, CpuSpec, NOMINAL_PSTATE, PState, PowerSpec,
    derive_pstates,
)
from repro.sim import Simulation


# -- P-state tables -----------------------------------------------------------

def test_pstate_validation():
    PState("P1", 0.5, 0.25)
    with pytest.raises(ValueError):
        PState("bad", 0.0, 0.5)
    with pytest.raises(ValueError):
        PState("bad", 1.1, 0.5)
    with pytest.raises(ValueError):
        PState("bad", 0.5, 0.0)


def test_derive_pstates_square_law_and_names():
    states = derive_pstates((1.0, 0.8, 0.5))
    assert [s.name for s in states] == ["P0", "P1", "P2"]
    assert states[0] == PState("P0", 1.0, 1.0)
    assert states[1].busy_w_factor == pytest.approx(0.64)
    assert states[2].busy_w_factor == pytest.approx(0.25)
    # P0 must be *exactly* nominal, not approximately.
    assert states[0].dmips_factor == 1.0
    assert states[0].busy_w_factor == 1.0


def test_derive_pstates_validation():
    with pytest.raises(ValueError):
        derive_pstates(())
    with pytest.raises(ValueError):
        derive_pstates((0.9, 0.8))          # first factor not 1.0
    with pytest.raises(ValueError):
        derive_pstates((1.0, 0.8, 0.8))     # not strictly decreasing
    with pytest.raises(ValueError):
        derive_pstates((1.0, 0.8), power_exponent=0.5)


def test_cpuspec_pstate_table_validation():
    with pytest.raises(ValueError):
        CpuSpec(cores=1, threads_per_core=1, dmips_per_thread=100.0,
                pstates=())
    with pytest.raises(ValueError):
        CpuSpec(cores=1, threads_per_core=1, dmips_per_thread=100.0,
                pstates=(PState("P0", 0.9, 0.81),))
    with pytest.raises(ValueError):
        CpuSpec(cores=1, threads_per_core=1, dmips_per_thread=100.0,
                pstates=(NOMINAL_PSTATE, PState("P1", 0.8, 0.64),
                         PState("P2", 0.9, 0.81)))


def test_profiles_carry_pstate_tables():
    for spec in (EDISON, DELL_R620):
        states = spec.cpu.pstates
        assert len(states) > 1
        assert states[0] == NOMINAL_PSTATE
        assert all(b.dmips_factor < a.dmips_factor
                   for a, b in zip(states, states[1:]))


# -- Cpu: re-rating and composition -------------------------------------------

def _drive(cpu, work_mi):
    """Run one burst to completion; return its duration."""
    sim = cpu.sim
    start = sim.now
    done = []

    def burst():
        yield from cpu.execute(work_mi)
        done.append(sim.now - start)
    sim.process(burst())
    sim.run()
    return done[0]


def _fresh_cpu():
    sim = Simulation()
    spec = CpuSpec(cores=2, threads_per_core=1, dmips_per_thread=100.0,
                   pstates=derive_pstates((1.0, 0.8, 0.5)))
    return Cpu(sim, spec)


def test_set_pstate_rerates_next_slice():
    cpu = _fresh_cpu()
    nominal = _drive(cpu, 100.0)
    assert nominal == pytest.approx(1.0)
    cpu.set_pstate(2)
    assert _drive(cpu, 100.0) == pytest.approx(nominal / 0.5)
    assert cpu.busy_time(100.0) == pytest.approx(2.0)
    # Bit-exact restore: back at P0 the duration is the float it was.
    cpu.set_pstate(0)
    assert _drive(cpu, 100.0) == nominal
    assert cpu.pstate == NOMINAL_PSTATE
    with pytest.raises(ValueError):
        cpu.set_pstate(3)
    with pytest.raises(ValueError):
        cpu.set_pstate(-1)


def test_throttle_and_pstate_compose_multiplicatively():
    cpu = _fresh_cpu()
    nominal = _drive(cpu, 100.0)
    cpu.throttle = 0.5
    cpu.set_pstate(1)               # dmips_factor 0.8
    stretched = _drive(cpu, 100.0)
    assert stretched == pytest.approx(nominal / (0.5 * 0.8))
    assert cpu.busy_time(100.0) == pytest.approx(1.0 / (0.5 * 0.8))
    # Lifting either knob alone leaves the other's stretch in place.
    cpu.throttle = 1.0
    assert _drive(cpu, 100.0) == pytest.approx(nominal / 0.8)
    # Restoring both gives back the bit-exact nominal duration: the
    # throttle x P-state guards must not leave a residual multiply.
    cpu.set_pstate(0)
    assert _drive(cpu, 100.0) == nominal
    assert cpu.busy_time(100.0) == cpu.service_time(100.0)


def test_power_pstate_rescales_only_the_cpu_share():
    spec = PowerSpec(idle_w=10.0, busy_w=110.0, adapter_w=1.0)
    p1 = PState("P1", 0.8, 0.64)
    util = {"cpu": 1.0, "net": 0.5}
    nominal = spec.power(util)
    governed = spec.power(util, pstate=p1)
    span = spec.busy_w - spec.idle_w
    cpu_part = spec.weights["cpu"] * 1.0
    assert governed == pytest.approx(
        nominal - span * cpu_part * (1.0 - p1.busy_w_factor))
    # None and P0 take the exact historical expression.
    assert spec.power(util, pstate=None) == nominal
    assert spec.power(util, pstate=NOMINAL_PSTATE) == nominal
    assert spec.max_w_at(NOMINAL_PSTATE) == spec.max_w
    assert spec.max_w_at(p1) == pytest.approx(
        spec.idle_w + span * 0.64 + spec.adapter_w)
    # Non-CPU components are untouched: with the CPU idle a deep
    # P-state changes nothing.
    assert spec.power({"net": 0.5}, pstate=p1) == spec.power({"net": 0.5})


# -- governors ----------------------------------------------------------------

def test_static_governor_decisions():
    perf, save = PerformanceGovernor(), PowersaveGovernor()
    assert perf.initial_index(4) == 0
    assert perf.decide(1.0, 0, 4) is None
    assert perf.decide(0.0, 2, 4) == 0
    assert save.initial_index(4) == 3
    assert save.decide(1.0, 3, 4) is None
    assert save.decide(1.0, 0, 4) == 3


def test_ondemand_governor_decisions():
    governor = OndemandGovernor()
    assert governor.initial_index(4) == 0      # cold fleet at nominal
    # At/above the up threshold: jump straight to P0.
    assert governor.decide(0.80, 2, 4) == 0
    assert governor.decide(0.95, 0, 4) is None
    # At/below the down threshold: step down exactly one.
    assert governor.decide(0.30, 0, 4) == 1
    assert governor.decide(0.10, 2, 4) == 3
    assert governor.decide(0.0, 3, 4) is None  # already at the bottom
    # The hold band between the thresholds.
    assert governor.decide(0.55, 1, 4) is None


def test_make_governor_and_config_validation():
    assert make_governor(DvfsConfig(kind="performance")).static
    assert not make_governor(DvfsConfig(kind="ondemand")).static
    with pytest.raises(ValueError, match="conservative"):
        DvfsConfig(kind="conservative")


def test_dvfs_config_roundtrip():
    config = DvfsConfig(kind="powersave")
    again = DvfsConfig.from_dict(config.to_dict())
    assert again == config
    assert config.to_dict() == {"kind": "powersave"}


# -- the plane ----------------------------------------------------------------

def test_attach_helpers_are_noops_when_off():
    from repro.web import WebServiceDeployment

    deployment = WebServiceDeployment("edison", "1/8", seed=41)
    assert attach_web(deployment, None) is None
    # Nothing armed: every CPU still parked at P0.
    assert all(s.cpu.pstate_index == 0
               for s in deployment.cluster.metered_servers)


def test_plane_refuses_bad_construction():
    from repro.web import WebServiceDeployment

    deployment = WebServiceDeployment("edison", "1/8", seed=41)
    with pytest.raises(ValueError):
        DvfsPlane(deployment.sim, [], DvfsConfig(kind="performance"))
    with pytest.raises(ValueError):
        # ondemand reads the TSDB; without telemetry there is none.
        DvfsPlane(deployment.sim, deployment.cluster.metered_servers,
                  DvfsConfig())


def test_powersave_plane_parks_the_fleet_deep():
    from repro.web import WebServiceDeployment

    deployment = WebServiceDeployment("edison", "1/8", seed=41)
    plane = attach_web(deployment, DvfsConfig(kind="powersave"), until=2.0)
    servers = deployment.cluster.metered_servers
    deepest = len(servers[0].cpu.spec.pstates) - 1
    assert all(s.cpu.pstate_index == deepest for s in servers)
    assert plane.counters["transitions"] == len(servers)
    deployment.run_level(12, duration=2.0, warmup=0.5)
    residency = plane.residency_s(2.0)
    assert residency[f"P{deepest}"] == pytest.approx(2.0 * len(servers))
    summary = plane.summary(2.0)
    assert summary["governor"] == "powersave"
    with pytest.raises(RuntimeError):
        plane.start()               # double start


def test_ondemand_plane_downclocks_an_underloaded_fleet():
    from repro.telemetry import Telemetry
    from repro.web import WebServiceDeployment
    from repro.web.loadshape import DiurnalShape, ShapedLoad

    deployment = WebServiceDeployment("edison", "1/8", seed=41,
                                      trace=__import__(
                                          "repro.trace",
                                          fromlist=["Tracer"]).Tracer())
    telemetry = Telemetry()
    telemetry.attach_web(deployment, until=6.0)
    plane = attach_web(deployment, DvfsConfig(), until=6.0)
    rate = 0.15 * deployment.target_rps()
    shape = ShapedLoad(DiurnalShape(base_rps=rate, peak_rps=rate,
                                    period_s=6.0))
    deployment.run_shaped(shape, 6.0, calls=5)
    # A mostly idle fleet must have stepped down...
    assert plane.counters["transitions"] > 0
    residency = plane.residency_s(6.0)
    assert any(name != "P0" and seconds > 0
               for name, seconds in residency.items())
    # ...with every decision on the record: the transition log, the
    # TSDB series, and the trace instants all agree.
    logged = sum(len(log) for log in plane.transitions.values())
    assert logged == plane.counters["transitions"]
    assert telemetry.db.select("cpu_pstate"), \
        "governor decisions must land in the TSDB"
    from repro.causality import pstate_transitions
    marks = pstate_transitions(deployment.sim.trace.log)
    assert sum(len(m) for m in marks.values()) == logged


# -- the scorecard ------------------------------------------------------------

def _card(powers, idle_w=4.0):
    points = tuple(
        LoadPoint(fraction=round(0.25 * (i + 1), 2),
                  offered_rps=100.0 * (i + 1), ok_calls=1000 * (i + 1),
                  window_s=10.0, mean_power_w=w)
        for i, w in enumerate(powers))
    return ProportionalityScorecard(platform="edison", scale="1/8",
                                    governor="nominal", idle_w=idle_w,
                                    points=points)


def test_scorecard_figures():
    # Linear-with-offset: P(u) = 4 + 6u at u = .25 .. 1.0.
    card = _card((5.5, 7.0, 8.5, 10.0))
    assert card.peak_w == 10.0
    assert card.dynamic_range == pytest.approx(0.6)
    # Gap at each rung: (P(u) - u * peak) / peak = (4 - 4u) / 10.
    assert card.proportionality_gap == pytest.approx(
        (0.3 + 0.2 + 0.1 + 0.0) / 4)
    assert card.best_point is card.points[-1]
    again = ProportionalityScorecard.from_dict(card.to_dict())
    assert again == card
    assert any("dynamic range" in line for line in card.lines())
    with pytest.raises(ValueError):
        _card(())
    with pytest.raises(ValueError):
        _card((5.0,), idle_w=-1.0)


def test_measure_proportionality_ladder():
    card = measure_proportionality("edison", scale="1/8",
                                   duration_s=2.0, warmup_s=0.5,
                                   fractions=(0.2, 1.0))
    assert card.governor == "nominal"
    assert card.idle_w > 0
    low, high = card.points
    assert low.mean_power_w < high.mean_power_w
    assert high.ok_calls > low.ok_calls
    assert 0.0 < card.dynamic_range < 1.0
    with pytest.raises(ValueError):
        measure_proportionality("edison", duration_s=1.0, warmup_s=1.0)
    with pytest.raises(ValueError):
        measure_proportionality("edison", fractions=())
    with pytest.raises(ValueError):
        measure_proportionality("edison", duration_s=2.0, warmup_s=0.5,
                                fractions=(1.5,))


# -- the sweep report ---------------------------------------------------------

def _arm(governor, joules, attained=True, platform="edison",
         shape="fixed"):
    from repro.dvfs import DvfsArm
    return DvfsArm(
        governor=governor, platform=platform, shape_name=shape,
        seconds=60.0, joules=joules, ok_calls=1000, errors=0,
        client_failures=0, availability=1.0, availability_met=attained,
        latency_met=attained, p95_s=0.02, mean_power_w=joules / 60.0,
        transitions=0 if governor == "performance" else 7)


def test_report_wins_require_joules_and_slo():
    from repro.dvfs import DvfsReport
    report = DvfsReport(
        plan_name="t", detail="d",
        arms=(_arm("performance", 100.0), _arm("ondemand", 90.0),
              _arm("performance", 100.0, shape="flash"),
              _arm("ondemand", 90.0, attained=False, shape="flash"),
              _arm("performance", 100.0, shape="diurnal"),
              _arm("ondemand", 110.0, shape="diurnal")))
    # Fewer joules at equal SLO wins; missing the SLO the rival meets,
    # or burning more, does not.
    assert report.ondemand_wins() == ["edison/fixed"]
    assert report.arm("edison", "fixed", "ondemand").joules == 90.0
    with pytest.raises(KeyError):
        report.arm("dell", "fixed", "ondemand")
    again = DvfsReport.from_dict(report.to_dict())
    assert again.ondemand_wins() == report.ondemand_wins()
    assert any("verdict" in line for line in report.lines())


def test_committed_plan_roundtrips():
    # The byte-for-byte round trip is test_records.py's, for every day.
    import os

    from repro.dvfs import DvfsPlan
    path = os.path.join(os.path.dirname(__file__), "..", "experiments",
                        "dvfs_day.json")
    plan = DvfsPlan.load(path)
    assert set(plan.shapes) == {"fixed", "diurnal", "flash"}
    assert plan.config("ondemand") == DvfsConfig(kind="ondemand")
    with pytest.raises(ValueError):
        DvfsPlan(name="bad", shapes={}, duration_s=10.0)


def test_tiny_sweep_runs_end_to_end():
    from repro.dvfs import DvfsPlan, dvfs_experiment
    from repro.web.loadshape import DiurnalShape, ShapedLoad

    plan = DvfsPlan(
        name="tiny",
        shapes={"diurnal": ShapedLoad(DiurnalShape(
            base_rps=40.0, peak_rps=260.0, period_s=8.0))},
        duration_s=8.0, calls=4)
    report = dvfs_experiment(plan, governors=("performance", "ondemand"),
                             platforms=("edison",), scorecards=False)
    assert [a.label for a in report.arms] == [
        "edison/diurnal/performance", "edison/diurnal/ondemand"]
    perf, ondemand = report.arms
    assert perf.transitions == 0
    assert ondemand.transitions > 0
    assert perf.joules > 0 and ondemand.joules > 0
    # Residency partitions node-seconds: every governed server accounts
    # for the whole day across its states.
    from repro.web import WebServiceDeployment
    servers = len(WebServiceDeployment("edison", plan.scale("edison"))
                  .cluster.metered_servers)
    assert sum(ondemand.residency_s.values()) == pytest.approx(
        8.0 * servers)


def test_plane_attach_helpers_take_until_and_telemetry_by_keyword():
    import inspect

    from repro import dvfs
    params = inspect.signature(dvfs.attach_web).parameters
    assert params["until"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["telemetry"].kind is inspect.Parameter.KEYWORD_ONLY
