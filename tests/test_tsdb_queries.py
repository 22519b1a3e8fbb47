"""Edge and property tests for the TSDB query helpers.

The autoscale controller steers a fleet off ``rate()`` and friends, so
the helpers must be boringly total at their edges: counter resets must
not produce negative rates and empty windows must say "no data"
instead of raising.
"""

import random

import pytest

from repro.sim import TimeSeries
from repro.telemetry import TimeSeriesDB


# -- rate() across counter resets ---------------------------------------------

def test_rate_across_single_counter_reset():
    s = TimeSeries("reqs")
    # 0 -> 30 over 3 s, process restarts, 0 -> 10 over the next 1 s.
    for t, v in [(0.0, 0.0), (1.0, 10.0), (2.0, 20.0), (3.0, 30.0),
                 (4.0, 10.0)]:
        s.record(t, v)
    # PromQL semantics: the post-reset sample counts as fresh increase.
    assert s.rate() == pytest.approx((30.0 + 10.0) / 4.0)


def test_rate_across_multiple_resets_never_negative():
    rng = random.Random(77)
    for _trial in range(50):
        s = TimeSeries("reqs")
        value = 0.0
        t = 0.0
        for _ in range(rng.randrange(2, 40)):
            t += rng.uniform(0.1, 2.0)
            if rng.random() < 0.2:
                value = rng.uniform(0.0, 5.0)   # reset (restart)
            else:
                value += rng.uniform(0.0, 10.0)
            s.record(t, value)
        assert s.rate() >= 0.0
        window = rng.uniform(0.5, t + 1.0)
        assert s.rate(window_s=window, now=t) >= 0.0


def test_rate_monotone_counter_matches_slope():
    s = TimeSeries("reqs")
    for i in range(20):
        s.record(float(i), 7.0 * i)
    assert s.rate() == pytest.approx(7.0)
    assert s.rate(window_s=5.0, now=19.0) == pytest.approx(7.0)


def test_rate_windows_with_too_few_samples_are_zero():
    s = TimeSeries("reqs")
    s.record(0.0, 5.0)
    assert s.rate() == 0.0                      # one sample total
    s.record(10.0, 25.0)
    assert s.rate(window_s=1.0, now=10.0) == 0.0  # one sample in window
    assert s.rate(window_s=1.0, now=50.0) == 0.0  # stale: none in window


def test_db_rate_of_missing_series_is_zero():
    db = TimeSeriesDB()
    assert db.rate("nope", node="web-0") == 0.0
    assert db.rate("nope", window_s=5.0, now=100.0) == 0.0


# -- avg_over_time over empty windows -----------------------------------------

def test_avg_over_time_empty_window_is_none_not_error():
    s = TimeSeries("watts")
    s.record(0.0, 3.0)
    s.record(1.0, 5.0)
    assert s.avg_over_time() == pytest.approx(4.0)
    # Query anchored long after the series went stale: no samples in
    # the window, and that must be a None, not a ZeroDivisionError.
    assert s.avg_over_time(window_s=2.0, now=100.0) is None


def test_avg_over_time_empty_series_raises():
    s = TimeSeries("watts")
    with pytest.raises(ValueError):
        s.avg_over_time()
    # The DB wrapper maps the same situation to None (absent series).
    assert TimeSeriesDB().avg_over_time("watts") is None


def test_avg_over_time_window_validation():
    s = TimeSeries("watts")
    s.record(0.0, 1.0)
    with pytest.raises(ValueError):
        s.avg_over_time(window_s=0.0)
    with pytest.raises(ValueError):
        s.rate(window_s=-1.0)
