"""Tests for the Section 6 TCO model against Tables 9 and 10."""

import pytest

from repro.core import paperdata as paper
from repro.sim import TimeSeries
from repro.tco import (
    DELL_TCO, EDISON_TCO, TcoInputs, cluster_tco, energy_cost_usd,
    node_energy_cost, savings_fraction, table10, weighted_energy_rate,
)


def test_tco_inputs_match_table9():
    assert EDISON_TCO.node_cost_usd == 120
    assert DELL_TCO.node_cost_usd == 2500
    assert EDISON_TCO.peak_power_w == pytest.approx(1.68)
    assert EDISON_TCO.idle_power_w == pytest.approx(1.40)
    assert DELL_TCO.peak_power_w == pytest.approx(109)
    assert DELL_TCO.idle_power_w == pytest.approx(52)


def test_tco_inputs_validation():
    with pytest.raises(ValueError):
        TcoInputs(node_cost_usd=-1, peak_power_w=2, idle_power_w=1)
    with pytest.raises(ValueError):
        TcoInputs(node_cost_usd=1, peak_power_w=1, idle_power_w=2)
    with pytest.raises(ValueError):
        TcoInputs(node_cost_usd=1, peak_power_w=2, idle_power_w=1,
                  lifetime_years=0)


def test_node_energy_cost_idle_server():
    inputs = TcoInputs(node_cost_usd=0, peak_power_w=100, idle_power_w=100)
    # 100 W for 3 years at $0.10/kWh = 0.1 kW * 26280 h * 0.1 $/kWh.
    assert node_energy_cost(inputs, 0.0) == pytest.approx(262.8)
    with pytest.raises(ValueError):
        node_energy_cost(inputs, 1.5)


def test_cluster_tco_scales_with_nodes():
    assert cluster_tco(EDISON_TCO, 35, 0.5) == pytest.approx(
        35 * cluster_tco(EDISON_TCO, 1, 0.5))
    with pytest.raises(ValueError):
        cluster_tco(EDISON_TCO, 0, 0.5)


@pytest.mark.parametrize("scenario,load", [
    ("web", "low"), ("web", "high"), ("bigdata", "low"), ("bigdata", "high"),
])
def test_table10_matches_paper(scenario, load):
    ours = table10()[(scenario, load)]
    published = paper.T10[(scenario, load)]
    assert ours["dell"] == pytest.approx(published["dell"], rel=0.02)
    assert ours["edison"] == pytest.approx(published["edison"], rel=0.02)


def test_edison_cluster_saves_up_to_47_percent():
    results = table10()
    best = max(savings_fraction(v) for v in results.values())
    assert best == pytest.approx(0.47, abs=0.02)


def test_edison_always_cheaper():
    for scenario in table10().values():
        assert scenario["edison"] < scenario["dell"]


# -- time-of-use pricing: a $/kWh tariff through weighted_energy_rate ------


def test_tou_flat_tariff_matches_flat_helper():
    # 1 kW for 7200 s = 2 kWh; a single-step tariff at the Table 9
    # rate must reproduce the flat-rate helper to the float.
    series = [(0.0, 1000.0), (7200.0, 1000.0)]
    flat = energy_cost_usd(2.0 * 3.6e6)
    assert weighted_energy_rate(
        series, [(0.0, paper.T9_ELECTRICITY_PER_KWH)]) == flat


def test_tou_boundary_straddling_splits_the_trapezoid():
    # 1 kW from t=0 to t=7200 with the price doubling at t=3600: one
    # kWh at $0.10 plus one kWh at $0.20, even though no power sample
    # lands on the boundary.
    series = [(0.0, 1000.0), (7200.0, 1000.0)]
    tariff = [(0.0, 0.10), (3600.0, 0.20)]
    assert weighted_energy_rate(series, tariff) == pytest.approx(0.30)


def test_tou_ramp_straddling_boundary_weighs_each_side():
    # Power ramps 0 -> 2 kW over [0, 7200]; the first half integrates
    # 0.5 kWh (mean 0.5 kW), the second 1.5 kWh (mean 1.5 kW).
    series = [(0.0, 0.0), (7200.0, 2000.0)]
    tariff = [(0.0, 0.10), (3600.0, 0.20)]
    assert weighted_energy_rate(series, tariff) == pytest.approx(
        0.5 * 0.10 + 1.5 * 0.20)


def test_tou_samples_before_first_tariff_point_use_first_rate():
    series = [(0.0, 1000.0), (3600.0, 1000.0)]
    assert weighted_energy_rate(series, [(7200.0, 0.50)]) \
        == pytest.approx(0.50)


def test_tou_accepts_timeseries_and_many_bands():
    series = TimeSeries("power")
    for t in range(0, 4 * 3600 + 1, 600):
        series.record(float(t), 1000.0)
    # Four hourly bands: $0.10, $0.30, $0.10, $0.30 -> $0.80 total.
    tariff = [(0.0, 0.10), (3600.0, 0.30), (7200.0, 0.10), (10800.0, 0.30)]
    assert weighted_energy_rate(series, tariff) == pytest.approx(0.80)


def test_weighted_energy_rate_validation():
    with pytest.raises(ValueError):
        weighted_energy_rate([(0.0, 1.0), (1.0, 1.0)], [])
    with pytest.raises(ValueError):
        weighted_energy_rate([(0.0, 1.0), (1.0, 1.0)],
                             [(1.0, 0.1), (0.5, 0.2)])
    with pytest.raises(ValueError):
        weighted_energy_rate([(1.0, 1.0), (0.0, 1.0)], [(0.0, 0.1)])
