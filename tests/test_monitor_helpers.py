"""Tests for the TimeSeries query helpers: rate and windows."""

import pytest

from repro.sim import TimeSeries


def make_series(pairs):
    series = TimeSeries("s")
    for t, v in pairs:
        series.record(t, v)
    return series


# -- edge cases ---------------------------------------------------------------

def test_empty_series_raises_everywhere():
    empty = TimeSeries("empty")
    with pytest.raises(ValueError):
        empty.rate()
    with pytest.raises(ValueError):
        empty.avg_over_time()


def test_single_sample_rate_is_zero():
    series = make_series([(1.0, 42.0)])
    assert series.rate() == 0.0
    assert series.rate(window_s=10.0) == 0.0


def test_single_sample_avg_is_the_sample():
    series = make_series([(1.0, 42.0)])
    assert series.avg_over_time() == 42.0


def test_backwards_time_rejected_on_record():
    series = make_series([(2.0, 1.0)])
    with pytest.raises(ValueError):
        series.record(1.0, 2.0)


def test_equal_timestamps_allowed_but_rate_zero():
    series = make_series([(1.0, 1.0), (1.0, 5.0)])
    assert series.rate() == 0.0


def test_nonpositive_window_rejected():
    series = make_series([(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(ValueError):
        series.rate(window_s=0.0)
    with pytest.raises(ValueError):
        series.avg_over_time(window_s=-1.0)


# -- rate ---------------------------------------------------------------------

def test_rate_of_steady_counter():
    series = make_series([(0.0, 0.0), (1.0, 10.0), (2.0, 20.0)])
    assert series.rate() == pytest.approx(10.0)


def test_rate_is_reset_aware():
    # Counter restarts at zero mid-way (a process restarted): the
    # post-reset samples still count as increase, PromQL-style.
    series = make_series([(0.0, 0.0), (1.0, 10.0), (2.0, 3.0), (3.0, 6.0)])
    # increase = 10 + 3 + 3 = 16 over 3 seconds.
    assert series.rate() == pytest.approx(16.0 / 3.0)


def test_rate_windowed_ignores_old_samples():
    series = make_series([(0.0, 0.0), (10.0, 100.0), (11.0, 110.0),
                          (12.0, 120.0)])
    assert series.rate(window_s=2.5) == pytest.approx(10.0)


def test_rate_with_explicit_now_anchor():
    series = make_series([(0.0, 0.0), (1.0, 10.0)])
    # Window anchored far past the data: nothing inside -> 0.0.
    assert series.rate(window_s=1.0, now=100.0) == 0.0


# -- avg/max over time --------------------------------------------------------

def test_avg_over_time_window():
    series = make_series([(0.0, 0.0), (1.0, 2.0), (2.0, 4.0)])
    assert series.avg_over_time() == pytest.approx(2.0)
    assert series.avg_over_time(window_s=1.5) == pytest.approx(3.0)


def test_avg_over_time_stale_series_is_none():
    series = make_series([(0.0, 1.0)])
    assert series.avg_over_time(window_s=1.0, now=10.0) is None
