"""Tests for the core evaluation harness: metrics, reports, capacity."""

import pytest

from repro.core import paperdata as paper
from repro.core.capacity import replacement_estimate
from repro.core.metrics import (
    efficiency_ratio, mean_speedup_across_jobs, relative_error,
    speedup_per_doubling, work_done_per_joule,
)
from repro.core.report import format_series, format_table
from repro.hardware import DELL_R620, EDISON


# -- metrics -----------------------------------------------------------------

def test_work_done_per_joule_basic():
    assert work_done_per_joule(10, 2) == 5
    with pytest.raises(ValueError):
        work_done_per_joule(1, 0)


def test_efficiency_ratio_from_table8_wordcount():
    wc = paper.T8["wordcount"]
    ratio = efficiency_ratio(wc["edison"][35].joules, wc["dell"][2].joules)
    assert ratio == pytest.approx(2.28, abs=0.01)


def test_efficiency_ratio_validation():
    with pytest.raises(ValueError):
        efficiency_ratio(0, 1)


def test_speedup_per_doubling_non_power_of_two_ladder():
    # 35 -> 17 is not exactly 2x; the metric normalises by size ratio.
    times = {35: 100.0, 17: 210.0}
    speedup = speedup_per_doubling(times)
    assert 1.9 < speedup < 2.2


def test_speedup_needs_two_sizes():
    with pytest.raises(ValueError):
        speedup_per_doubling({4: 100.0})


def test_mean_speedup_matches_paper_recomputation():
    """Sanity: the paper's own Table 8 yields ~1.9 for Edison."""
    times = {job: {size: r.seconds
                   for size, r in paper.T8[job]["edison"].items()}
             for job in paper.T8}
    assert mean_speedup_across_jobs(times) == pytest.approx(
        paper.S53_EDISON_MEAN_SPEEDUP, abs=0.15)


def test_mean_speedup_requires_jobs():
    with pytest.raises(ValueError):
        mean_speedup_across_jobs({})


def test_relative_error_and_band():
    assert relative_error(110, 100) == pytest.approx(0.10)
    with pytest.raises(ValueError):
        relative_error(1, 0)


# -- report -------------------------------------------------------------------

def test_format_table_alignment():
    text = format_table(("a", "bb"), [("x", 1), ("yyyy", 22)], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1          # all rows equally wide


def test_format_table_markdown():
    text = format_table(("a", "bb"), [("xyz", 1)], markdown=True)
    assert text.splitlines() == ["| a   | bb |", "|-----|----|",
                                 "| xyz | 1  |"]


def test_format_table_validation():
    with pytest.raises(ValueError):
        format_table((), [])
    with pytest.raises(ValueError):
        format_table(("a",), [("x", "too-wide")])


def test_format_series_subsamples():
    pairs = [(float(i), float(i * i)) for i in range(100)]
    text = format_series("s", pairs, max_points=10)
    assert text.count(":") == 10
    assert "0:0" in text
    assert "99:9801" in text
    with pytest.raises(ValueError):
        format_series("s", pairs, max_points=1)


# -- capacity -------------------------------------------------------------------

def test_replacement_estimate_matches_table2():
    estimate = replacement_estimate(EDISON, DELL_R620)
    assert estimate.by_cpu == 12
    assert estimate.by_memory == 16
    assert estimate.by_network == 10
    assert estimate.required == paper.T2_EDISONS_PER_DELL


def test_replacement_estimate_is_ceiling():
    # A dell replacing a dell needs exactly one of itself.
    estimate = replacement_estimate(DELL_R620, DELL_R620)
    assert estimate.required == 1
