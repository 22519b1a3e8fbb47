"""Total-cost-of-ownership model (Section 6, Equation 1).

    C = Cs + Ce = Cs + Ts * Ceph * (U * Pp + (1 - U) * Pi)

with server cost Cs, electricity price Ceph ($/kWh), lifetime Ts,
utilisation U, peak power Pp and idle power Pi.  Table 9 supplies the
constants; Table 10 evaluates two scenarios (web service, big data)
at low and high utilisation for both cluster designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core import paperdata as paper

HOURS_PER_YEAR = 365.0 * 24.0


@dataclass(frozen=True)
class TcoInputs:
    """Per-node TCO parameters (one row of Table 9)."""

    node_cost_usd: float
    peak_power_w: float
    idle_power_w: float
    lifetime_years: float = paper.T9_LIFETIME_YEARS
    electricity_usd_per_kwh: float = paper.T9_ELECTRICITY_PER_KWH

    def __post_init__(self):
        if self.node_cost_usd < 0:
            raise ValueError("node_cost_usd must be >= 0")
        if self.peak_power_w < self.idle_power_w or self.idle_power_w < 0:
            raise ValueError("need 0 <= idle_power_w <= peak_power_w")
        if self.lifetime_years <= 0 or self.electricity_usd_per_kwh < 0:
            raise ValueError("lifetime and electricity price must be sane")


def node_energy_cost(inputs: TcoInputs, utilization: float) -> float:
    """Lifetime electricity cost of one node at a given utilisation."""
    if not 0 <= utilization <= 1:
        raise ValueError("utilization must be in [0, 1]")
    mean_watts = (utilization * inputs.peak_power_w
                  + (1 - utilization) * inputs.idle_power_w)
    kwh = mean_watts / 1000.0 * HOURS_PER_YEAR * inputs.lifetime_years
    return kwh * inputs.electricity_usd_per_kwh


def cluster_tco(inputs: TcoInputs, nodes: int, utilization: float) -> float:
    """Equation 1 for a whole cluster."""
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    return nodes * (inputs.node_cost_usd
                    + node_energy_cost(inputs, utilization))


def energy_cost_usd(joules: float) -> float:
    """Electricity cost of ``joules`` of measured energy.

    Equation 1 prices energy from assumed utilisation; a metered run
    has the joules themselves, so the autoscale report charges those
    directly at the Table 9 tariff.
    """
    if joules < 0:
        raise ValueError("joules must be >= 0")
    return joules / 3.6e6 * paper.T9_ELECTRICITY_PER_KWH


def weighted_energy_rate(power_series, rate_points) -> float:
    """Integrate a power trace against a piecewise-constant rate.

    ``power_series`` is a sorted iterable of ``(time_s, watts)`` samples
    (a :class:`repro.sim.TimeSeries`'s ``pairs()`` works directly); the
    power between samples is interpolated linearly, exactly as
    :meth:`TimeSeries.integrate` does for plain joules.  ``rate_points``
    is a sorted iterable of ``(start_s, rate_per_kwh)`` steps: each rate
    applies from its start time until the next point's start; the first
    rate also covers any earlier samples.  Returns the rate-weighted
    energy, ``sum(kWh_i * rate_i)`` with every trapezoid split exactly
    at the rate boundaries it straddles.

    This is the common core of time-of-use electricity pricing
    (rate = $/kWh) and grid-carbon accounting (rate = gCO2/kWh).
    """
    pairs = list(power_series.pairs() if hasattr(power_series, "pairs")
                 else power_series)
    steps = list(rate_points)
    if not steps:
        raise ValueError("rate_points must contain at least one step")
    for (t0, _), (t1, _) in zip(steps, steps[1:]):
        if t1 <= t0:
            raise ValueError("rate_points must be sorted by start time")
    total = 0.0
    for (ta, wa), (tb, wb) in zip(pairs, pairs[1:]):
        if tb < ta:
            raise ValueError("power_series must be sorted by time")
        if tb == ta:
            continue
        # Split [ta, tb] at every rate boundary strictly inside it.
        cuts = [ta] + [t for t, _ in steps if ta < t < tb] + [tb]
        slope = (wb - wa) / (tb - ta)
        rate_index = 0
        for x0, x1 in zip(cuts, cuts[1:]):
            while (rate_index + 1 < len(steps)
                   and steps[rate_index + 1][0] <= x0):
                rate_index += 1
            w0 = wa + slope * (x0 - ta)
            w1 = wa + slope * (x1 - ta)
            joules = 0.5 * (w0 + w1) * (x1 - x0)
            total += joules / 3.6e6 * steps[rate_index][1]
    return total


def amortized_hardware_usd(total_node_cost_usd: float,
                           seconds: float) -> float:
    """The slice of Cs a run of ``seconds`` consumes.

    Straight-line amortisation of the fleet's purchase price over the
    Table 9 lifetime — the dollars a provisioning choice costs even
    while its nodes are powered off.
    """
    if total_node_cost_usd < 0 or seconds < 0:
        raise ValueError("cost and seconds must be >= 0")
    lifetime_s = paper.T9_LIFETIME_YEARS * HOURS_PER_YEAR * 3600.0
    return total_node_cost_usd * seconds / lifetime_s


EDISON_TCO = TcoInputs(
    node_cost_usd=paper.T9_EDISON_NODE_COST,
    peak_power_w=paper.T3_EDISON_BUSY_W,
    idle_power_w=paper.T3_EDISON_IDLE_W,
)

DELL_TCO = TcoInputs(
    node_cost_usd=paper.T9_DELL_NODE_COST,
    peak_power_w=paper.T3_DELL_BUSY_W,
    idle_power_w=paper.T3_DELL_IDLE_W,
)


def table10() -> Dict[tuple, Dict[str, float]]:
    """Reproduce Table 10: 3-year TCO for both scenarios and loads.

    Web service compares 35 Edisons to 3 Dells at the Section 5.1
    layout; big data compares 35 Edisons (assumed pinned at 100 %
    utilisation, as the paper argues) to 2 Dells.
    """
    results: Dict[tuple, Dict[str, float]] = {}
    for load, dell_util in (("low", paper.T9_UTIL_LOW),
                            ("high", paper.T9_UTIL_HIGH)):
        results[("web", load)] = {
            "dell": cluster_tco(DELL_TCO, 3, dell_util),
            "edison": cluster_tco(EDISON_TCO, 35, dell_util),
        }
    for load, dell_util in (("low", paper.T9_BIGDATA_DELL_UTIL_LOW),
                            ("high", paper.T9_BIGDATA_DELL_UTIL_HIGH)):
        results[("bigdata", load)] = {
            "dell": cluster_tco(DELL_TCO, 2, dell_util),
            "edison": cluster_tco(EDISON_TCO, 35, 1.0),
        }
    return results


def savings_fraction(scenario: Dict[str, float]) -> float:
    """How much of the Dell cluster's TCO the Edison cluster saves."""
    return 1.0 - scenario["edison"] / scenario["dell"]
