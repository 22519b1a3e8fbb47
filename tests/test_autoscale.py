"""Tests for repro.autoscale: policies, pools, actuation, the hybrid
deployment, and the load shapes that drive the three-arm day."""

from dataclasses import asdict

import pytest

from repro.autoscale import (ACTIVE, BOOTING, DRAINING, OFF, AutoscaleLedger,
                             FleetActuator, FleetPool, HybridWebDeployment,
                             PoolNode, PredictivePolicy)
from repro.autoscale.pool import MIN_ACTIVE
from repro.autoscale.policy import (COOLDOWN_S, HIGH_UTILIZATION, HISTORY_S,
                                    LOW_UTILIZATION, TARGET_UTILIZATION)
from repro.cluster import hybrid_web_cluster
from repro.faults import FaultInjector, FaultPlan
from repro.faults.models import node_set_partition
from repro.sim import Simulation
from repro.telemetry import Telemetry
from repro.web import (DiurnalShape, FlashCrowd, ShapedLoad,
                       WebServiceDeployment, WeightedRotation)


# -- shared fakes -------------------------------------------------------------

class FakeServer:
    def __init__(self, name):
        self.name = name


class FakeWeb:
    def __init__(self, name):
        self.server = FakeServer(name)


class FakeFaults:
    """Just enough fault plane for the rotation's health checks."""

    def __init__(self, down=()):
        self.down = set(down)

    def detected_down(self, name):
        return name in self.down


def small_hybrid(**kwargs):
    kwargs.setdefault("edison_web", 2)
    kwargs.setdefault("dell_web", 1)
    kwargs.setdefault("cache", 1)
    kwargs.setdefault("seed", 11)
    return HybridWebDeployment(**kwargs)


# -- policy constants ---------------------------------------------------------

def test_policy_config_validation():
    # The hysteresis only holds if the target sits strictly inside the
    # band: a target at or past an edge leaves every resized fleet
    # outside the band, so the next tick would act again.
    assert 0.0 <= LOW_UTILIZATION < TARGET_UTILIZATION < HIGH_UTILIZATION
    assert HIGH_UTILIZATION <= 1.0
    assert COOLDOWN_S >= 0.0 and HISTORY_S > 0.0


# -- pool planning ------------------------------------------------------------

def test_pool_plan_order_prefers_efficiency():
    deployment = small_hybrid()
    order = [n.name for n in deployment.pool.plan_order]
    # Edisons (~175 rps/W) come before the Dell (~32 rps/W).
    assert order == ["web-0", "web-1", "web-2"]
    assert deployment.pool.by_name["web-2"].platform == "dell"


def test_pool_greedy_cover_and_min_active():
    deployment = small_hybrid()
    pool = deployment.pool
    edison = pool.by_name["web-0"].capacity_rps
    # Tiny demand: min_active floor holds one node.
    assert [n.name for n in pool.plan_active_set(1.0)] == ["web-0"]
    # Demand beyond one Edison pulls in the second; beyond both, the
    # Dell joins.
    assert len(pool.plan_active_set(edison + 1.0)) == 2
    assert len(pool.plan_active_set(2 * edison + 1.0)) == 3
    # The MIN_ACTIVE floor beats a demand of zero.
    assert len(pool.plan_active_set(0.0)) == MIN_ACTIVE == 1


def test_pool_committed_capacity_counts_booting():
    deployment = small_hybrid()
    pool = deployment.pool
    full = pool.committed_capacity_rps()
    pool.by_name["web-0"].state = BOOTING
    assert pool.committed_capacity_rps() == pytest.approx(full)
    pool.by_name["web-0"].state = OFF
    assert pool.committed_capacity_rps() < full


def test_pool_validation():
    with pytest.raises(ValueError):
        FleetPool([])
    with pytest.raises(ValueError):
        PoolNode(FakeWeb("x"), capacity_rps=0.0)


# -- policies -----------------------------------------------------------------

def test_reactive_holds_inside_hysteresis_band():
    policy = PredictivePolicy()      # no lookahead: purely reactive
    # 60/100 = 0.6 utilisation: inside the band, hold.
    assert policy.decide(0.0, 60.0, 100.0) is None
    assert policy.decide(0.0, 79.9, 100.0) is None
    assert policy.decide(0.0, 40.1, 100.0) is None


def test_reactive_scales_up_without_cooldown():
    policy = PredictivePolicy()      # no lookahead: purely reactive
    # Two consecutive breaches seconds apart both act: scale-up is
    # never cooldown-gated.
    assert policy.decide(0.0, 90.0, 100.0) == pytest.approx(150.0)
    assert policy.decide(1.0, 95.0, 100.0) == pytest.approx(95.0 / 0.6)


def test_reactive_scale_down_respects_cooldown():
    policy = PredictivePolicy()      # no lookahead: purely reactive
    assert policy.decide(0.0, 90.0, 100.0) is not None     # scale up
    # Utilisation collapses immediately: the down-scale must wait out
    # the 12 s cooldown from that last action.
    assert policy.decide(2.0, 10.0, 100.0) is None
    assert policy.decide(11.0, 10.0, 100.0) is None
    assert policy.decide(12.0, 12.0, 100.0) == pytest.approx(20.0)


def test_reactive_boots_an_empty_fleet():
    policy = PredictivePolicy()      # no lookahead: purely reactive
    assert policy.decide(0.0, 30.0, 0.0) == pytest.approx(50.0)


def test_predictive_lookahead_adds_demand_on_ramps():
    policy = PredictivePolicy(lookahead_s=10.0)
    # A clean 5 rps/s ramp: slope is exact, so the demand signal runs
    # one lookahead (50 rps) ahead of the measured rate.
    for t in range(5):
        demand = policy.demand_rps(float(t), 100.0 + 5.0 * t)
    assert demand == pytest.approx(120.0 + 50.0)
    # Declines are never extrapolated: demand floors at the measured
    # rate instead of shedding on a forecast.
    policy2 = PredictivePolicy(lookahead_s=10.0)
    for t in range(5):
        demand = policy2.demand_rps(float(t), 200.0 - 5.0 * t)
    assert demand == pytest.approx(180.0)


def test_predictive_history_trimmed_to_its_window():
    policy = PredictivePolicy(lookahead_s=7.0)
    for t in range(60):
        policy.demand_rps(float(t), 10.0)
    assert all(t >= 59.0 - HISTORY_S for t, _ in policy.history)
    assert policy.history[0][0] == 59.0 - HISTORY_S


# -- weighted rotation --------------------------------------------------------

def test_rotation_distributes_by_weight():
    sim = Simulation()
    rotation = WeightedRotation(sim)
    rotation.add(FakeWeb("a"), 1.0)
    rotation.add(FakeWeb("b"), 3.0)
    for _ in range(400):
        rotation.pick()
    assert rotation.picks == {"a": 100, "b": 300}


def test_rotation_smooth_interleaving():
    # Smooth WRR spreads the heavy backend out instead of bursting:
    # with weights 1 and 3 the light backend is never starved longer
    # than one full cycle.
    sim = Simulation()
    rotation = WeightedRotation(sim)
    rotation.add(FakeWeb("a"), 1.0)
    rotation.add(FakeWeb("b"), 3.0)
    sequence = [rotation.pick().server.name for _ in range(8)]
    assert sequence.count("a") == 2
    assert "aa" not in "".join(sequence)


def test_rotation_deregistration_and_return():
    sim = Simulation()
    rotation = WeightedRotation(sim)
    rotation.add(FakeWeb("a"), 1.0)
    rotation.add(FakeWeb("b"), 1.0)
    rotation.set_in_rotation("b", False)
    assert [rotation.pick().server.name for _ in range(4)] == ["a"] * 4
    rotation.set_in_rotation("b", True)
    names = {rotation.pick().server.name for _ in range(2)}
    assert names == {"a", "b"}


def test_rotation_skips_detected_down_backends():
    sim = Simulation()
    sim.faults = FakeFaults(down={"a"})
    rotation = WeightedRotation(sim)
    rotation.add(FakeWeb("a"), 10.0)
    rotation.add(FakeWeb("b"), 1.0)
    assert rotation.pick().server.name == "b"
    sim.faults = FakeFaults(down={"a", "b"})
    assert rotation.pick() is None


def test_rotation_rejects_duplicates_and_bad_weights():
    rotation = WeightedRotation(Simulation())
    rotation.add(FakeWeb("a"), 1.0)
    with pytest.raises(ValueError):
        rotation.add(FakeWeb("a"), 2.0)
    with pytest.raises(ValueError):
        rotation.add(FakeWeb("b"), 0.0)


# -- load shapes --------------------------------------------------------------

def test_diurnal_shape_trough_and_peak():
    shape = DiurnalShape(base_rps=100.0, peak_rps=500.0, period_s=100.0)
    assert shape.rate(0.0) == pytest.approx(100.0)       # trough
    assert shape.rate(50.0) == pytest.approx(500.0)      # peak
    assert shape.rate(100.0) == pytest.approx(100.0)     # next trough
    for t in range(0, 101, 7):
        assert 100.0 - 1e-9 <= shape.rate(float(t)) <= 500.0 + 1e-9


def test_flash_crowd_factor_envelope():
    flash = FlashCrowd(at_s=10.0, ramp_s=5.0, hold_s=5.0, decay_s=5.0,
                       multiplier=3.0)
    assert flash.factor(9.9) == 1.0
    assert flash.factor(12.5) == pytest.approx(2.0)      # mid-ramp
    assert flash.factor(17.0) == pytest.approx(3.0)      # holding
    assert flash.factor(22.5) == pytest.approx(2.0)      # mid-decay
    assert flash.factor(30.0) == 1.0


def test_shaped_load_product_and_bound_and_roundtrip():
    shape = ShapedLoad(
        DiurnalShape(base_rps=100.0, peak_rps=400.0, period_s=100.0),
        flashes=(FlashCrowd(at_s=40.0, ramp_s=5.0, hold_s=10.0,
                            decay_s=5.0, multiplier=2.0),))
    assert shape.rate(50.0) == pytest.approx(800.0)
    assert shape.peak_bound() == pytest.approx(800.0)
    for t in range(0, 101, 3):
        assert shape.rate(float(t)) <= shape.peak_bound() + 1e-9
    assert ShapedLoad.from_dict(shape.to_dict()) == shape


# -- the hybrid cluster and deployment ----------------------------------------

def test_hybrid_cluster_layout():
    sim = Simulation()
    cluster = hybrid_web_cluster(sim, edison_web=2, dell_web=1, cache=1)
    assert cluster.servers["web-0"].platform == "edison"
    assert cluster.servers["web-1"].platform == "edison"
    assert cluster.servers["web-2"].platform == "dell"
    assert cluster.servers["cache-0"].platform == "edison"
    metered = {s.name for s in cluster.metered_servers}
    assert metered == {"web-0", "web-1", "web-2", "cache-0"}
    with pytest.raises(ValueError):
        hybrid_web_cluster(sim, edison_web=0, dell_web=0, cache=1)


def test_hybrid_deployment_static_by_default():
    deployment = small_hybrid()
    assert deployment.platform == "hybrid"
    assert deployment.controller is None
    assert deployment.ledger is None
    assert deployment.target_rps() > 0


def test_hybrid_node_resets_when_a_partition_heals():
    deployment = small_hybrid()
    FaultInjector(deployment.cluster, FaultPlan(faults=(
        node_set_partition(["web-0"], at=1.0, duration=2.0),)))
    deployment._ensure_injector()        # wires the recovery rule
    web = deployment.web_nodes[0]
    web.established = 3                  # clients long since gave up
    epoch = web.epoch
    deployment.sim.run(until=2.0)
    assert (web.epoch, web.established) == (epoch, 3)    # still severed
    deployment.sim.run(until=4.0)
    assert (web.epoch, web.established) == (epoch + 1, 0)


# -- actuation ordering -------------------------------------------------------

def drive(deployment):
    """An actuator wired to a real injector and rotation."""
    injector = deployment._ensure_injector()
    ledger = AutoscaleLedger()
    actuator = FleetActuator(deployment.sim, injector, deployment.rotation,
                             ledger)
    return injector, ledger, actuator


def test_power_off_deregisters_then_drains_then_suspends():
    deployment = small_hybrid()
    injector, ledger, actuator = drive(deployment)
    node = deployment.pool.by_name["web-0"]
    actuator.power_off(node)
    # Deregistration is synchronous; the suspend is not.
    assert not deployment.rotation.in_rotation("web-0")
    assert node.state == DRAINING
    assert injector.is_up("web-0")
    deployment.sim.run(until=5.0)
    assert node.state == OFF
    assert not injector.is_up("web-0")
    assert [(a.action, a.node) for a in ledger.actions] == [
        ("drain", "web-0"), ("off", "web-0")]
    # No connections were open, so the drain completed on the first
    # check: nothing lingered, nothing is billed.
    assert ledger.joules["drain"] == 0.0
    assert ledger.counters["drain_timeouts"] == 0


def test_power_on_boots_before_serving():
    deployment = small_hybrid()
    injector, ledger, actuator = drive(deployment)
    node = deployment.pool.by_name["web-0"]
    actuator.power_off(node)
    deployment.sim.run(until=5.0)
    actuator.power_on(node)
    assert node.state == BOOTING
    assert not deployment.rotation.in_rotation("web-0")
    deployment.sim.run(until=5.0 + 7.9)      # Edison boots in 8 s
    assert node.state == BOOTING
    deployment.sim.run(until=5.0 + 8.1)
    assert node.state == ACTIVE
    assert deployment.rotation.in_rotation("web-0")
    assert injector.is_up("web-0")
    order = [a.action for a in ledger.actions]
    assert order == ["drain", "off", "boot", "serve"]
    serve, boot = ledger.actions[-1], ledger.actions[-2]
    assert serve.time - boot.time == pytest.approx(8.0)
    assert ledger.joules["boot"] == pytest.approx(8.0 * node.idle_watts)


def test_actuator_rejects_wrong_state_transitions():
    deployment = small_hybrid()
    _injector, _ledger, actuator = drive(deployment)
    node = deployment.pool.by_name["web-0"]
    with pytest.raises(RuntimeError):
        actuator.power_on(node)          # already ACTIVE
    actuator.power_off(node)
    with pytest.raises(RuntimeError):
        actuator.power_off(node)         # already DRAINING


# -- suspended nodes: zero watts, no scrape targets ---------------------------

def test_suspended_node_draws_zero_watts_and_vanishes_from_scrapes():
    deployment = small_hybrid()
    telemetry = Telemetry()
    telemetry.attach_web(deployment, until=6.0)
    injector, _ledger, actuator = drive(deployment)
    server = deployment.cluster.servers["web-1"]

    actuator.power_off(deployment.pool.by_name["web-1"])
    deployment.sim.run(until=6.0)
    # Admin-suspended: the fault plane reports it down, bills 0 W...
    assert not injector.is_up("web-1")
    window = tuple(server.utilization_now().values())   # a pure read
    assert injector.node_watts(server, window) == 0.0
    # ...and the node agent stopped scraping it, so its "up" series
    # goes silent while the live peers keep reporting.
    [(_, up_suspended)] = telemetry.db.select("up", node="web-1")
    [(_, up_alive)] = telemetry.db.select("up", node="web-0")
    assert up_suspended.times[-1] <= 1.0      # only pre-suspend samples
    assert up_alive.times[-1] >= 5.0
    # A booting node draws idle watts, not zero and not full tilt.
    injector.admin_begin_boot("web-1")
    watts = injector.node_watts(server, window)
    assert watts == pytest.approx(server.spec.power.min_w)


# -- the closed loop ----------------------------------------------------------

def test_controller_scales_up_from_tsdb_signal():
    deployment = small_hybrid(autoscale=True)
    telemetry = Telemetry()
    deployment.telemetry = telemetry     # controller reads only the TSDB
    controller = deployment.prepare_autoscaler(initial_rps=100.0)
    pool = deployment.pool
    # One Edison covers 100/0.6 rps; the rest were parked pre-run.
    assert [pool.by_name[n].state for n in ("web-0", "web-1", "web-2")] \
        == [ACTIVE, OFF, OFF]
    assert not deployment.rotation.in_rotation("web-1")
    # Synthesise a hot request counter for the surviving node: ~290
    # rps, utilisation ~0.98 over 295 rps capacity.
    for t in (0.0, 1.0, 2.0):
        telemetry.db.record(t, "web_requests_total", 290.0 * t,
                            node="web-0")
    deployment.sim.run(until=2.5)        # one eval at t=2.0
    assert controller.ledger.counters["boots"] >= 1
    assert pool.by_name["web-1"].state == BOOTING
    deployment.sim.run(until=11.0)       # Edison boot (8 s) lands
    assert pool.by_name["web-1"].state == ACTIVE
    assert deployment.rotation.in_rotation("web-1")
    # The controller journals its own decisions into the TSDB.
    assert telemetry.db.select("autoscale_offered_rps")
    assert telemetry.db.select("autoscale_desired_rps")


def test_controller_requires_telemetry_and_enabled_config():
    deployment = small_hybrid(autoscale=True)
    with pytest.raises(ValueError):
        deployment.prepare_autoscaler(initial_rps=10.0)   # no telemetry
    static = small_hybrid()
    with pytest.raises(RuntimeError):
        static.prepare_autoscaler(initial_rps=10.0)       # not autoscaled


# -- end-to-end days ----------------------------------------------------------

DAY = ShapedLoad(DiurnalShape(base_rps=40.0, peak_rps=240.0, period_s=16.0))


def test_static_shaped_day_runs_and_counts():
    deployment = WebServiceDeployment("edison", "1/8", seed=5)
    level = deployment.run_shaped(DAY, 8.0, calls=4)
    assert level.ok_calls > 0
    assert level.concurrency == 0
    assert level.window_s == pytest.approx(8.0)


#: The stock policy looks one Dell boot plus one tick (17 s) ahead, so
#: a ramp as steep as DAY's reads as a reason to wake the Dell; a
#: one-minute period is slow enough for it.
SLOW_DAY = ShapedLoad(DiurnalShape(base_rps=40.0, peak_rps=240.0,
                                   period_s=60.0))


def test_autoscaled_hybrid_day_saves_energy():
    def run(autoscale):
        deployment = small_hybrid(autoscale=autoscale)
        if autoscale:
            telemetry = Telemetry()
            telemetry.attach_web(deployment, until=40.0)
        level = deployment.run_day(SLOW_DAY, 40.0, calls=4)
        return deployment, level

    static, static_level = run(False)
    scaled, scaled_level = run(True)
    # The autoscaler parked the Dell (3550 rps of capacity nobody
    # needed at <= 240 rps) and served the day on Edisons.
    assert scaled.ledger.counters["evals"] > 0
    assert scaled.pool.by_name["web-2"].state == OFF
    assert scaled.meter.energy_joules() < static.meter.energy_joules()
    # It still served the same day's offered load.
    assert scaled_level.ok_calls > 0.95 * static_level.ok_calls
    assert scaled_level.failed_connections == 0


def test_autoscaled_day_is_deterministic():
    def run():
        deployment = small_hybrid(autoscale=True)
        telemetry = Telemetry()
        telemetry.attach_web(deployment, until=12.0)
        level = deployment.run_day(DAY, 12.0, calls=4)
        ledger = deployment.ledger
        return (asdict(level), deployment.meter.energy_joules(),
                dict(ledger.counters), dict(ledger.joules),
                [a.to_dict() for a in ledger.actions])

    assert run() == run()
