"""Alerting: absence / spread rules and the alert lifecycle.

Rules are evaluated *inside* the simulation against the
:class:`~repro.telemetry.tsdb.TimeSeriesDB` the scrapers fill, so an
alert's firing time is a simulated timestamp directly comparable with
the fault injector's ground-truth injection times — that comparison is
the time-to-detect the detection report measures.

The lifecycle mirrors Prometheus Alertmanager's: a breached rule is
*pending* until it has breached continuously for ``for_s`` seconds,
then *firing*; once the condition clears the alert is *resolved* and
kept in the history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .tsdb import TimeSeriesDB

@dataclass(frozen=True)
class AbsenceRule:
    """Fire when a series goes silent for longer than ``stale_s``.

    This is the node-down detector: every node agent records ``up=1``
    each scrape while its node is alive, so a crashed node's series
    stops advancing and the gap between ``now`` and its last sample
    grows past ``stale_s``.  The observed value reported with the alert
    is that gap in seconds.  It fires on the first breaching evaluation
    (``stale_s`` is already the grace period), so it has no ``for_s``.
    """

    name: str
    metric: str = "up"
    stale_s: float = 1.0

    def __post_init__(self):
        if self.stale_s <= 0:
            raise ValueError(f"stale_s must be > 0, got {self.stale_s}")

    def breaches(self, db: TimeSeriesDB, now: float
                 ) -> List[Tuple[str, float]]:
        out = []
        for labels, series in db.select(self.metric):
            if not series.times:
                continue
            silence = now - series.times[-1]
            if silence > self.stale_s:
                out.append((labels.get("node", ""), silence))
        return out


@dataclass(frozen=True)
class SpreadRule:
    """Fire when a metric's max-min spread across nodes is too wide.

    The paper's scale-out experiments assume the load balancer spreads
    work evenly; this rule catches utilisation imbalance (one hot node,
    the rest idle) that would invalidate that assumption.  The subject
    of the alert is the node carrying the maximum.
    """

    name: str
    metric: str
    threshold: float
    window_s: float = 1.0
    for_s: float = 0.0

    def __post_init__(self):
        if self.threshold < 0 or self.window_s <= 0 or self.for_s < 0:
            raise ValueError("threshold/for_s must be >= 0, window_s > 0")

    def breaches(self, db: TimeSeriesDB, now: float
                 ) -> List[Tuple[str, float]]:
        readings = []
        for labels, series in db.select(self.metric):
            if not series.times:
                continue
            value = series.avg_over_time(window_s=self.window_s, now=now)
            if value is not None:
                readings.append((labels.get("node", ""), value))
        if len(readings) < 2:
            return []
        hot = max(readings, key=lambda nv: nv[1])
        cold = min(readings, key=lambda nv: nv[1])
        spread = hot[1] - cold[1]
        if spread > self.threshold:
            return [(hot[0], spread)]
        return []


@dataclass
class Alert:
    """One firing (possibly later resolved) instance of a rule."""

    rule: str
    node: str
    fired_at: float
    value: float
    resolved_at: Optional[float] = None

    @property
    def duration_s(self) -> Optional[float]:
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.fired_at

    def to_dict(self) -> Dict:
        return {"rule": self.rule, "node": self.node,
                "fired_at": self.fired_at, "value": self.value,
                "resolved_at": self.resolved_at}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Alert":
        return cls(rule=data["rule"], node=data["node"],
                   fired_at=data["fired_at"], value=data["value"],
                   resolved_at=data.get("resolved_at"))


class AlertManager:
    """Evaluates rules periodically and tracks alert state.

    One manager per run; :meth:`run` is spawned as a simulation process
    by the telemetry facade.  Evaluation is read-only against the TSDB
    (no RNG, no resources), so attaching rules cannot perturb the
    simulated workload.
    """

    def __init__(self, db: TimeSeriesDB, rules, interval: float = 0.5):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.db = db
        self.rules = list(rules)
        self.interval = interval
        #: The run's tracer, set by the telemetry facade at attach
        #: time: alert firings and resolutions become trace instants.
        self.trace = None
        names = [r.name for r in self.rules]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate rule names: {sorted(names)}")
        #: Every alert ever raised, in firing order (resolved in place).
        self.history: List[Alert] = []
        self._active: Dict[Tuple[str, str], Alert] = {}
        self._pending_since: Dict[Tuple[str, str], float] = {}
        self.evaluations = 0

    # -- evaluation ------------------------------------------------------

    def evaluate(self, now: float) -> List[Alert]:
        """One evaluation pass; returns alerts that newly fired."""
        self.evaluations += 1
        fired: List[Alert] = []
        breached_keys = set()
        for rule in self.rules:
            for_s = getattr(rule, "for_s", 0.0)
            for subject, value in rule.breaches(self.db, now):
                key = (rule.name, subject)
                breached_keys.add(key)
                if key in self._active:
                    self._active[key].value = value
                    continue
                since = self._pending_since.setdefault(key, now)
                if now - since >= for_s:
                    alert = Alert(rule=rule.name, node=subject,
                                  fired_at=now, value=value)
                    self._active[key] = alert
                    self.history.append(alert)
                    fired.append(alert)
                    del self._pending_since[key]
                    if self.trace is not None:
                        self.trace.instant(
                            "alert.fired", category="telemetry",
                            node=subject, rule=rule.name, value=value)
        # Clear pendings and resolve actives whose condition lifted.
        for key in list(self._pending_since):
            if key not in breached_keys:
                del self._pending_since[key]
        for key, alert in list(self._active.items()):
            if key not in breached_keys:
                alert.resolved_at = now
                del self._active[key]
                if self.trace is not None:
                    self.trace.instant(
                        "alert.resolved", category="telemetry",
                        node=alert.node, rule=alert.rule,
                        after_s=now - alert.fired_at)
        return fired

    def run(self, sim, until: Optional[float] = None):
        """Process generator: evaluate every ``interval`` seconds."""
        while until is None or sim.now <= until:
            self.evaluate(sim.now)
            yield sim.timeout(self.interval)


def default_rules() -> List:
    """The stock rule set the CLI attaches with ``--telemetry``, for a
    0.25 s scrape interval.

    * ``node_silent`` — a node agent missed ~2.5 scrapes (a crash).
    * ``cpu_imbalance`` — CPU utilisation spread across nodes beyond
      0.5, over a 1 s window, for 0.5 s.
    """
    return [
        AbsenceRule(name="node_silent", metric="up", stale_s=0.625),
        SpreadRule(name="cpu_imbalance", metric="node_cpu_utilization",
                   threshold=0.5, window_s=1.0, for_s=0.5),
    ]
