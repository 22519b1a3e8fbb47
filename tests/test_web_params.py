"""Unit tests for the web stack's cost model and workload parameters."""

import pytest

from repro.core import paperdata as paper
from repro.web import params as P
from repro.web import (
    WebWorkload, tuned_calls_per_connection, workload_factor,
)


def mean_reply_bytes(image_fraction):
    """Average reply size of an image-query mix."""
    return ((1 - image_fraction) * P.NON_IMAGE_REPLY_BYTES
            + image_fraction * P.IMAGE_REPLY_BYTES)


def test_mean_reply_bytes_matches_paper_mix_table():
    for image_fraction, reply in paper.S51_REPLY_SIZES.items():
        assert mean_reply_bytes(image_fraction) == pytest.approx(
            reply, rel=0.06)


def test_workload_factor_heavy_mix_costs_about_15_percent():
    light = workload_factor(0.0, 0.93)
    heavy = workload_factor(0.20, 0.93)
    assert heavy / light == pytest.approx(
        paper.S51_HEAVY_TO_LIGHT_RPS, abs=0.02)


def test_workload_factor_lower_hit_ratio_slightly_derates():
    assert workload_factor(0.0, 0.60) < workload_factor(0.0, 0.93)
    assert workload_factor(0.0, 0.60) > 0.9 * workload_factor(0.0, 0.93)


def test_tuned_calls_tracks_target_over_concurrency():
    assert tuned_calls_per_connection(512, 7080) == 14
    assert tuned_calls_per_connection(8, 7080) == 40      # capped
    assert tuned_calls_per_connection(2048, 7080) == 5    # floored


def test_tuned_calls_validation():
    with pytest.raises(ValueError):
        tuned_calls_per_connection(0, 100)
    with pytest.raises(ValueError):
        tuned_calls_per_connection(10, 0)


def test_webworkload_defaults_and_validation():
    workload = WebWorkload()
    assert workload.cache_hit_ratio == 0.93
    assert workload.image_fraction == 0.0
    assert mean_reply_bytes(workload.image_fraction) == pytest.approx(1500)
    with pytest.raises(ValueError):
        WebWorkload(image_fraction=2.0)
    with pytest.raises(ValueError):
        WebWorkload(cache_hit_ratio=-0.1)


def test_platform_capacities_give_matching_cluster_peaks():
    """24 Edison and 2 Dell web servers must peak within a few percent."""
    edison_peak = 24 * P.PER_SERVER_CAPACITY_RPS["edison"]
    dell_peak = 2 * P.PER_SERVER_CAPACITY_RPS["dell"]
    assert edison_peak == pytest.approx(dell_peak, rel=0.05)
    assert edison_peak == pytest.approx(paper.S51_PEAK_RPS_LIGHT, rel=0.08)


def test_service_costs_reproduce_peak_cpu_utilisation():
    """Section 5.1.2: ~86 % CPU on Edison webs, ~45 % on Dell webs."""
    from repro.hardware import DELL_R620, EDISON
    heavy_reply_kb = mean_reply_bytes(0.20) / 1000.0
    for platform, spec, expected in (
        ("edison", EDISON, paper.S51_PEAK_UTILIZATION[("edison", "web")]["cpu"]),
        ("dell", DELL_R620, paper.S51_PEAK_UTILIZATION[("dell", "web")]["cpu"]),
    ):
        costs = P.COSTS[platform]
        per_request_mi = (costs.request_base_mi + costs.cache_client_mi
                          + costs.per_reply_kb_mi * heavy_reply_kb
                          + 0.07 * costs.db_client_mi)
        rate = P.PER_SERVER_CAPACITY_RPS[platform] * workload_factor(0.20, 0.93)
        cpu = rate * per_request_mi / spec.cpu.machine_dmips
        assert cpu == pytest.approx(expected, rel=0.25)
