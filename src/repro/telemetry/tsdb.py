"""An in-memory time-series store with labels and queries.

The monitoring plane's database: every scraped sample lands here as a
``(metric name, label set)`` series backed by the same
:class:`~repro.sim.TimeSeries` the power meter records into, so the
analytics the meter already had (trapezoidal integration, windowed
means) and the query helpers (``rate()``, ``avg_over_time()``) apply
uniformly.  Every series keeps all its samples: a monitored run lasts
simulated minutes, not weeks.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..sim import TimeSeries

#: A frozen label set: sorted ``(key, value)`` pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def label_key(labels: Mapping[str, object]) -> LabelKey:
    """Canonical hashable form of a label mapping."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class TimeSeriesDB:
    """Labeled time series, keyed ``(name, labels)``."""

    def __init__(self):
        self._series: Dict[Tuple[str, LabelKey], TimeSeries] = {}

    def __len__(self) -> int:
        return len(self._series)

    # -- write side ------------------------------------------------------

    def series(self, name: str, **labels: object) -> TimeSeries:
        """Get or create the series for ``name`` with ``labels``.

        A writer that records into one series again and again can keep
        the returned series and append to it directly.
        """
        if not name:
            raise ValueError("series name must be non-empty")
        key = (name, label_key(labels))
        found = self._series.get(key)
        if found is None:
            found = self._series[key] = TimeSeries(name)
        return found

    def record(self, time: float, name: str, value: float,
               **labels: object) -> None:
        """Append one sample."""
        self.series(name, **labels).record(time, float(value))

    # -- read side -------------------------------------------------------

    def names(self) -> List[str]:
        """All metric names present, sorted."""
        return sorted({name for name, _ in self._series})

    def select(self, name: str, **matchers: object
               ) -> List[Tuple[Dict[str, str], TimeSeries]]:
        """Series of metric ``name`` whose labels include ``matchers``."""
        wanted = {str(k): str(v) for k, v in matchers.items()}
        out = []
        for (metric, key), series in self._series.items():
            if metric != name:
                continue
            labels = dict(key)
            if all(labels.get(k) == v for k, v in wanted.items()):
                out.append((labels, series))
        return out

    def last(self, name: str, **labels: object
             ) -> Optional[Tuple[float, float]]:
        """Most recent ``(time, value)`` of one exact series, or None."""
        series = self._series.get((name, label_key(labels)))
        if series is None or not series.times:
            return None
        return series.times[-1], series.values[-1]

    def rate(self, name: str, window_s: Optional[float] = None,
             now: Optional[float] = None, **labels: object) -> float:
        """``rate()`` of one exact series (0.0 when it does not exist)."""
        series = self._series.get((name, label_key(labels)))
        if series is None or not series.times:
            return 0.0
        return series.rate(window_s=window_s, now=now)

    def avg_over_time(self, name: str, window_s: Optional[float] = None,
                      now: Optional[float] = None,
                      **labels: object) -> Optional[float]:
        """Windowed mean of one exact series (None when absent/stale)."""
        series = self._series.get((name, label_key(labels)))
        if series is None or not series.times:
            return None
        return series.avg_over_time(window_s=window_s, now=now)

    # -- (de)serialisation ----------------------------------------------

    def to_dicts(self) -> List[Dict]:
        """JSON-friendly dump, one dict per series, sorted for stability."""
        out = []
        for (name, key), series in sorted(self._series.items()):
            out.append({"name": name, "labels": dict(key),
                        "times": list(series.times),
                        "values": list(series.values)})
        return out

    @classmethod
    def from_dicts(cls, dicts: List[Dict]) -> "TimeSeriesDB":
        """Rebuild a database from :meth:`to_dicts` output."""
        db = cls()
        for entry in dicts:
            series = db.series(entry["name"], **entry.get("labels", {}))
            for t, v in zip(entry["times"], entry["values"]):
                series.record(t, v)
        return db
