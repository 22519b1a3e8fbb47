"""SLO accounting and fault-detection scoring for a monitored run.

Two reports close the observability loop:

* :class:`SloReport` — availability (fraction of web calls answered
  200) and latency (p95 against the Table 7 interactivity band)
  service-level objectives, with classic error-budget arithmetic.
* :class:`DetectionReport` — for every ground-truth fault the injector
  recorded, the first alert that saw it and the time-to-detect.  The
  injector's :class:`~repro.faults.injector.FaultRecord` list is the
  ground truth the paper's recovery timelines (Figures 14-17) are drawn
  against, so detection latency is measured on the same clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class SloSpec:
    """Targets a run is held to.

    ``latency_p95_s`` defaults to the paper's 3-second interactivity
    bound (Section 5.2: the delay past which a web page no longer feels
    interactive), which is the band Table 7 peak-load columns are read
    against.
    """

    availability_target: float = 0.999
    latency_p95_s: float = 3.0

    def __post_init__(self):
        if not 0.0 < self.availability_target <= 1.0:
            raise ValueError("availability_target must be in (0, 1]")
        if self.latency_p95_s <= 0:
            raise ValueError("latency_p95_s must be > 0")


@dataclass(frozen=True)
class SloReport:
    """Measured service levels vs. an :class:`SloSpec`.

    ``client_failures`` are outcomes only the client saw: give-ups
    after exhausted SYN retries and calls abandoned at the client
    timeout.  A server-side log never records them (a timed-out call
    completes "successfully" on the server after the user left), yet
    the user experienced an outage — so each one counts as one more
    request *and* one more error in every availability figure below.

    ``worst_exemplar`` (when the run collected exemplars) is the
    slowest trace-linked observation — a ``{value, trace_id, bucket}``
    dict pointing at the causal tree to pull up when the latency line
    reads MISSED.
    """

    spec: SloSpec
    requests: int
    errors: int
    p95_s: Optional[float]
    client_failures: int = 0
    worst_exemplar: Optional[Dict] = None

    @property
    def total_requests(self) -> int:
        """Server-observed requests plus client-only failures."""
        return self.requests + self.client_failures

    @property
    def total_errors(self) -> int:
        """Server-observed errors plus client-only failures."""
        return self.errors + self.client_failures

    @property
    def availability(self) -> Optional[float]:
        if self.total_requests == 0:
            return None
        return 1.0 - self.total_errors / self.total_requests

    @property
    def error_budget(self) -> int:
        """Errors the availability target allows for this many requests."""
        return int(self.total_requests
                   * (1.0 - self.spec.availability_target))

    @property
    def budget_consumed(self) -> Optional[float]:
        """Fraction of the error budget burned (None with no budget)."""
        budget = self.error_budget
        if budget == 0:
            return None
        return self.total_errors / budget

    @property
    def availability_met(self) -> Optional[bool]:
        availability = self.availability
        if availability is None:
            return None
        return availability >= self.spec.availability_target

    @property
    def latency_met(self) -> Optional[bool]:
        if self.p95_s is None:
            return None
        return self.p95_s <= self.spec.latency_p95_s

    def to_dict(self) -> Dict:
        return {
            "availability_target": self.spec.availability_target,
            "latency_p95_target_s": self.spec.latency_p95_s,
            "requests": self.requests,
            "errors": self.errors,
            "client_failures": self.client_failures,
            "availability": self.availability,
            "p95_s": self.p95_s,
            "error_budget": self.error_budget,
            "budget_consumed": self.budget_consumed,
            "availability_met": self.availability_met,
            "latency_met": self.latency_met,
            "worst_exemplar": self.worst_exemplar,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SloReport":
        return cls(spec=SloSpec(
            availability_target=data["availability_target"],
            latency_p95_s=data["latency_p95_target_s"]),
            requests=data["requests"], errors=data["errors"],
            p95_s=data["p95_s"],
            client_failures=data.get("client_failures", 0),
            worst_exemplar=data.get("worst_exemplar"))

    def lines(self) -> List[str]:
        head = f"SLO report ({self.requests} requests, {self.errors} errors"
        if self.client_failures:
            head += f", {self.client_failures} client-side failures"
        out = [head + ")"]
        availability = self.availability
        if availability is None:
            out.append("  availability: no requests observed")
        else:
            verdict = "met" if self.availability_met else "MISSED"
            out.append(f"  availability: {availability:.4%} "
                       f"(target {self.spec.availability_target:.3%}) "
                       f"-- {verdict}")
            consumed = self.budget_consumed
            if consumed is not None:
                out.append(f"  error budget: {self.total_errors}/"
                           f"{self.error_budget} ({consumed:.0%} consumed)")
        if self.p95_s is None:
            out.append("  latency p95: no successful calls observed")
        else:
            verdict = "met" if self.latency_met else "MISSED"
            out.append(f"  latency p95: {self.p95_s * 1000:.1f} ms "
                       f"(target {self.spec.latency_p95_s * 1000:.0f} ms) "
                       f"-- {verdict}")
        if self.worst_exemplar is not None:
            ex = self.worst_exemplar
            out.append(f"  worst exemplar: {ex['value'] * 1000:.1f} ms "
                       f"-> trace {ex['trace_id']}")
        return out


@dataclass(frozen=True)
class Detection:
    """One injected fault and the first alert that saw it."""

    kind: str
    node: str
    injected_at: float
    detected_at: Optional[float]
    rule: Optional[str]

    @property
    def detected(self) -> bool:
        return self.detected_at is not None

    @property
    def time_to_detect(self) -> Optional[float]:
        if self.detected_at is None:
            return None
        return self.detected_at - self.injected_at

    def to_dict(self) -> Dict:
        return {"kind": self.kind, "node": self.node,
                "injected_at": self.injected_at,
                "detected_at": self.detected_at, "rule": self.rule,
                "time_to_detect": self.time_to_detect}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Detection":
        """Load one detection; the ``expected``/``observed`` class keys
        of an older bundle are ignored."""
        return cls(kind=data["kind"], node=data["node"],
                   injected_at=data["injected_at"],
                   detected_at=data.get("detected_at"),
                   rule=data.get("rule"))


@dataclass(frozen=True)
class DetectionReport:
    """Alert firings matched against ground-truth fault injections."""

    detections: Tuple[Detection, ...] = ()

    @classmethod
    def match(cls, fault_records, alerts) -> "DetectionReport":
        """Pair each fault record with the first alert that covers it.

        An alert covers a fault when it names the fault's node — or,
        for partition records that carry an explicit member set, any
        node the record :meth:`~repro.faults.injector.FaultRecord.covers`
        — and fired at or after the injection time (late alerts still
        count as detections with a large time-to-detect; the report
        makes slowness visible rather than hiding it).  Each alert is
        consumed at most once so two back-to-back faults need two
        firings.
        """

        def covers(record, name):
            fn = getattr(record, "covers", None)
            return fn(name) if fn is not None else name == record.node

        remaining = sorted(alerts, key=lambda a: a.fired_at)
        used = [False] * len(remaining)
        detections = []
        for record in sorted(fault_records, key=lambda r: r.start):
            hit = None
            for i, alert in enumerate(remaining):
                if used[i] or not covers(record, alert.node):
                    continue
                if alert.fired_at >= record.start:
                    hit = i
                    break
            if hit is None:
                detections.append(Detection(
                    kind=record.kind, node=record.node,
                    injected_at=record.start, detected_at=None, rule=None))
            else:
                used[hit] = True
                alert = remaining[hit]
                detections.append(Detection(
                    kind=record.kind, node=record.node,
                    injected_at=record.start,
                    detected_at=alert.fired_at, rule=alert.rule))
        return cls(detections=tuple(detections))

    @property
    def detected_count(self) -> int:
        return sum(1 for d in self.detections if d.detected)

    @property
    def mean_time_to_detect(self) -> Optional[float]:
        ttds = [d.time_to_detect for d in self.detections if d.detected]
        if not ttds:
            return None
        return sum(ttds) / len(ttds)

    def to_dict(self) -> Dict:
        return {"detections": [d.to_dict() for d in self.detections],
                "detected": self.detected_count,
                "injected": len(self.detections),
                "mean_time_to_detect": self.mean_time_to_detect}

    @classmethod
    def from_dict(cls, data: Mapping) -> "DetectionReport":
        return cls(detections=tuple(
            Detection.from_dict(d) for d in data.get("detections", ())))

    def lines(self) -> List[str]:
        if not self.detections:
            return ["Detection report: no faults were injected"]
        out = [f"Detection report ({self.detected_count}/"
               f"{len(self.detections)} faults detected)"]
        for d in self.detections:
            if d.detected:
                out.append(f"  {d.kind} on {d.node} at t={d.injected_at:.2f}s"
                           f" -> {d.rule} fired at t={d.detected_at:.2f}s"
                           f" (ttd {d.time_to_detect:.2f}s)")
            else:
                out.append(f"  {d.kind} on {d.node} at t={d.injected_at:.2f}s"
                           f" -> NOT DETECTED")
        mean = self.mean_time_to_detect
        if mean is not None:
            out.append(f"  mean time-to-detect: {mean:.2f}s")
        return out
