"""Tests for the scaling-grid API and web sweep summaries."""

import pytest

from repro.core import paperdata as paper
from repro.mapreduce import JOB_FACTORIES, run_job
from repro.mapreduce.scaling import (
    ScalingGrid, paper_mean_speedup, paper_times,
)
from repro.web import WebWorkload
from repro.web.httperf import LevelResult
from repro.web.runner import SweepResult


def test_paper_times_and_energies_lookup():
    times = paper_times("wordcount", "edison")
    assert times[35] == 310
    assert times[4] == 3283
    assert paper.T8["terasort"]["dell"][1].joules == 111422


def test_paper_mean_speedup_recomputes_section53():
    assert paper_mean_speedup("edison") == pytest.approx(
        paper.S53_EDISON_MEAN_SPEEDUP, abs=0.15)
    assert paper_mean_speedup("dell") == pytest.approx(
        paper.S53_DELL_MEAN_SPEEDUP, abs=0.35)


def _pi_cell(size):
    spec, config = JOB_FACTORIES["pi"]("edison", size)
    return run_job("edison", size, spec, config=config)


def test_run_scaling_grid_small():
    # run_scaling_grid's cells on two small pi clusters; its Table 8
    # ladders (every job, 4-35 slaves) run in the claims gate.
    grid = ScalingGrid("edison", {"pi": {size: _pi_cell(size)
                                         for size in (4, 8)}})
    assert set(grid.reports["pi"]) == {4, 8}
    times = grid.times("pi")
    assert times[8] < times[4]
    assert all(report.joules > 0 for report in grid.reports["pi"].values())
    assert 1.2 < grid.mean_speedup() < 2.5


def _level(concurrency, ok_calls, errors=0, power=50.0, window=2.0):
    return LevelResult(
        platform="edison", concurrency=concurrency, calls_per_connection=10,
        window_s=window, ok_calls=ok_calls, error_calls=errors,
        timeout_calls=0, failed_connections=0, connections=ok_calls // 10,
        syn_retries=0, mean_delay_s=0.01, mean_power_w=power)


def test_sweep_result_peak_excludes_error_levels():
    sweep = SweepResult(
        platform="edison", scale="full", workload=WebWorkload(),
        levels=(
            _level(256, 8000),
            _level(512, 14000),
            _level(1024, 16000, errors=120),   # paper excludes 5xx levels
        ))
    assert sweep.peak_rps() == pytest.approx(7000)    # 14000 / 2 s
    assert sweep.max_clean_concurrency() == 512
    assert sweep.mean_power_at_peak() == 50.0


def test_sweep_result_all_error_levels():
    sweep = SweepResult(
        platform="edison", scale="full", workload=WebWorkload(),
        levels=(_level(64, 100, errors=5),))
    assert sweep.peak_rps() == 0.0
    assert sweep.max_clean_concurrency() == 0


def test_level_result_error_rate_and_energy():
    clean = _level(64, 1000)
    assert clean.energy_joules == pytest.approx(100.0)
    dirty = _level(64, 900, errors=100)
    assert dirty.has_server_errors
