"""Alerting: threshold / absence / spread rules and the alert lifecycle.

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

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


@dataclass(frozen=True)
class ThresholdRule:
    """Fire when a metric crosses a threshold.

    ``window_s == 0`` compares the latest sample; a positive window
    compares ``avg_over_time`` over that trailing window, which rides
    out single-sample spikes.  ``labels`` restricts which series of the
    metric are considered; each matching series alerts independently
    (keyed by its ``node`` label when present).
    """

    name: str
    metric: str
    op: str
    threshold: float
    window_s: float = 0.0
    for_s: float = 0.0
    labels: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unknown op {self.op!r}; use one of "
                             f"{sorted(_OPS)}")
        if self.window_s < 0 or self.for_s < 0:
            raise ValueError("window_s and for_s must be >= 0")

    def breaches(self, db: TimeSeriesDB, now: float
                 ) -> List[Tuple[str, float]]:
        """``(subject, observed value)`` per series in breach at ``now``."""
        out = []
        compare = _OPS[self.op]
        for labels, series in db.select(self.metric, **dict(self.labels)):
            if not series.times:
                continue
            if self.window_s > 0:
                value = series.avg_over_time(window_s=self.window_s, now=now)
                if value is None:
                    continue
            else:
                value = series.values[-1]
            if compare(value, self.threshold):
                out.append((labels.get("node", ""), value))
        return out


@dataclass(frozen=True)
class AbsenceRule:
    """Fire when a series goes silent for longer than ``stale_s``.

    This is the node-down detector: every node agent records ``up=1``
    each scrape while its node is alive, so a crashed node's series
    stops advancing and the gap between ``now`` and its last sample
    grows past ``stale_s``.  The observed value reported with the alert
    is that gap in seconds.
    """

    name: str
    metric: str = "up"
    stale_s: float = 1.0
    for_s: float = 0.0

    def __post_init__(self):
        if self.stale_s <= 0:
            raise ValueError(f"stale_s must be > 0, got {self.stale_s}")
        if self.for_s < 0:
            raise ValueError("for_s must be >= 0")

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
class CorrelatedSilenceRule(AbsenceRule):
    """Fire when several nodes go silent *together*: silent but alive.

    A lone stale heartbeat is the classic dead-node signature the
    plain :class:`AbsenceRule` catches.  But when a rack's uplink is
    severed, every member's series stops advancing within one scrape
    of each other — the nodes are still burning power and (in the
    split-brain window) still doing work, they just cannot push
    samples.  This rule breaches only for stale series whose *last*
    samples landed within ``correlation_s`` of at least
    ``min_silent - 1`` other stale series, so it stays quiet for
    isolated crashes and fires per-node for partitions.  The detection
    report keys off the rule name to score dead-vs-unreachable
    classification against the injector's ground truth.
    """

    min_silent: int = 2
    correlation_s: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if self.min_silent < 2:
            raise ValueError("min_silent must be >= 2 (one silent node "
                             "is AbsenceRule's job)")
        if self.correlation_s <= 0:
            raise ValueError("correlation_s must be > 0")

    def breaches(self, db: TimeSeriesDB, now: float
                 ) -> List[Tuple[str, float]]:
        stale = []
        for labels, series in db.select(self.metric):
            if not series.times:
                continue
            silence = now - series.times[-1]
            if silence > self.stale_s:
                stale.append((labels.get("node", ""), series.times[-1],
                              silence))
        out = []
        for node, last, silence in stale:
            peers = sum(1 for _node, other, _s in stale
                        if abs(other - last) <= self.correlation_s)
            if peers >= self.min_silent:
                out.append((node, silence))
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
    def active(self) -> bool:
        return self.resolved_at is None

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

    def __init__(self, db: TimeSeriesDB, rules, interval: float = 0.5,
                 trace=None):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.db = db
        self.rules = list(rules)
        self.interval = interval
        self.trace = trace
        names = [r.name for r in self.rules]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate rule names: {sorted(names)}")
        #: Every alert ever raised, in firing order (resolved in place).
        self.history: List[Alert] = []
        self._active: Dict[Tuple[str, str], Alert] = {}
        self._pending_since: Dict[Tuple[str, str], float] = {}
        self.evaluations = 0

    # -- queries ---------------------------------------------------------

    def active(self) -> List[Alert]:
        """Alerts currently firing."""
        return [a for a in self.history if a.active]

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


def default_rules(scrape_interval: float = 0.25,
                  latency_p95_s: Optional[float] = None,
                  imbalance: float = 0.5,
                  partitions: bool = False) -> List:
    """The stock rule set the CLI attaches with ``--telemetry``.

    * ``node_silent`` — a node agent missed ~2.5 scrapes (a crash).
    * ``nodes_unreachable`` — several agents went silent *together*
      (rack/trunk partition symptom); only with ``partitions=True``, so
      runs that never sever anything keep their alert history (and
      pinned bundles) unchanged.
    * ``web_latency_high`` — mean web delay above the Table 7 band edge
      (only when a band is given).
    * ``cpu_imbalance`` — CPU utilisation spread across nodes beyond
      ``imbalance``.
    """
    rules: List = [
        AbsenceRule(name="node_silent", metric="up",
                    stale_s=2.5 * scrape_interval),
        SpreadRule(name="cpu_imbalance", metric="node_cpu_utilization",
                   threshold=imbalance, window_s=4 * scrape_interval,
                   for_s=2 * scrape_interval),
    ]
    if partitions:
        rules.insert(1, CorrelatedSilenceRule(
            name="nodes_unreachable", metric="up",
            stale_s=2.5 * scrape_interval,
            correlation_s=2 * scrape_interval))
    if latency_p95_s is not None:
        rules.append(ThresholdRule(
            name="web_latency_high", metric="web_mean_delay_s", op=">",
            threshold=latency_p95_s, window_s=4 * scrape_interval,
            for_s=2 * scrape_interval))
    return rules
