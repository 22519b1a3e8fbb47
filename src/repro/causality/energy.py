"""Per-span energy attribution from the power meter's trace.

The :class:`~repro.energy.PowerMeter` samples each server's watts and
emits them as per-node ``*.node_power_w`` counters when tracing is on.
This module integrates that power trace over each causal span's
``[start, end)`` on its node, splitting the *marginal* watts (above the
node's idle baseline) evenly across the spans resident at each instant
— so every request and every task attempt gets a joules figure, and
the figures conserve: per node,

    baseline_j + unattributed_j + sum(by_span) == metered_j

holds by construction (the elementary intervals partition the metering
window and every interval's energy lands in exactly one bucket), which
the causality smoke checks to 0.1 % on committed seeded runs.

"Resident" means the *deepest* active span of the node's causal trees:
while a request span's db leg runs on the db node, the web node's
request span itself is resident on the web node; a parent and its
same-node child never double-count.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..trace.events import TraceLog
from .forest import SpanForest, build_forest

#: Per-node power counters end with this suffix (see PowerMeter.sample).
NODE_POWER_SUFFIX = ".node_power_w"

#: DVFS transition instants (see repro.dvfs.DvfsPlane): the governor
#: stamps one per P-state change *and* forces a meter sample at the
#: same instant, so the sampled power trace integrated below carries an
#: edge exactly at the transition — attribution prices the active
#: P-state without smearing the step across a sampling interval.
PSTATE_EVENT = "dvfs.pstate"


@dataclass
class NodeEnergy:
    """Energy account of one metered node over the trace window."""

    node: str
    metered_j: float = 0.0        # trapezoidal integral of the samples
    baseline_j: float = 0.0       # idle-floor watts (shared overhead)
    unattributed_j: float = 0.0   # marginal watts with no resident span
    by_span: Dict[int, float] = field(default_factory=dict)

    @property
    def attributed_j(self) -> float:
        return sum(self.by_span.values())

    @property
    def conservation_error_j(self) -> float:
        """Metered minus accounted — ~0 up to float summation dust."""
        return self.metered_j - (self.baseline_j + self.unattributed_j
                                 + self.attributed_j)

    @property
    def conservation_error_rel(self) -> float:
        if self.metered_j == 0.0:
            return 0.0
        return abs(self.conservation_error_j) / self.metered_j


@dataclass
class EnergyAttribution:
    """Per-node accounts plus span-level joules across the cluster."""

    nodes: Dict[str, NodeEnergy]

    def by_trace(self, forest: SpanForest) -> Dict[int, float]:
        """Total joules per causal tree (request / connection / job)."""
        totals: Dict[int, float] = {}
        owner: Dict[int, int] = {}
        for root in forest.roots:
            for node in root.walk():
                owner[node.span_id] = root.trace_id
        for acct in self.nodes.values():
            for span_id, joules in acct.by_span.items():
                trace_id = owner.get(span_id)
                if trace_id is not None:
                    totals[trace_id] = totals.get(trace_id, 0.0) + joules
        return totals

def node_power_samples(log: Iterable) -> Dict[str, List[Tuple[float, float]]]:
    """Per-node (t, watts) samples from the meter's trace counters."""
    samples: Dict[str, List[Tuple[float, float]]] = {}
    for event in log:
        if (event.phase == "C" and event.node
                and event.name.endswith(NODE_POWER_SUFFIX)):
            samples.setdefault(event.node, []).append(
                (event.ts, float(event.attrs.get("value", 0.0))))
    for series in samples.values():
        series.sort(key=lambda tw: tw[0])
    return samples


def attribute_energy(log: TraceLog,
                     idle_w: Optional[Dict[str, float]] = None,
                     forest: Optional[SpanForest] = None,
                     ) -> EnergyAttribution:
    """Attribute every metered node's joules across its resident spans.

    ``idle_w`` maps node name to baseline watts (typically
    ``server.spec.power.min_w``); omitted, each node's baseline is
    estimated as its minimum observed sample — exact on runs with any
    idle moment, conservative otherwise.  ``forest`` may be passed to
    reuse an already-built one; by default the forest spans every
    category so same-node parent/child de-duplication sees all spans.
    """
    if forest is None:
        forest = build_forest(log)
    samples = node_power_samples(log)
    # parent chains for the deepest-resident test, restricted per node.
    parent_of = {node.span_id: node.parent_id for node in forest.walk()}
    nodes: Dict[str, NodeEnergy] = {}
    for name, series in samples.items():
        acct = NodeEnergy(node=name)
        nodes[name] = acct
        if len(series) < 2:
            continue
        t0, t1 = series[0][0], series[-1][0]
        acct.metered_j = _trapezoid(series)
        baseline_w = (idle_w.get(name) if idle_w is not None else None)
        if baseline_w is None:
            baseline_w = min(w for _, w in series)
        spans = [
            (max(n.start, t0), min(n.end, t1), n.span_id)
            for n in forest.walk()
            if n.node == name and n.span_id
            and n.end > t0 and n.start < t1
        ]
        _attribute_node(acct, series, spans, baseline_w, parent_of)
    return EnergyAttribution(nodes=nodes)


def _trapezoid(series: List[Tuple[float, float]]) -> float:
    total = 0.0
    for (ta, wa), (tb, wb) in zip(series, series[1:]):
        total += 0.5 * (wa + wb) * (tb - ta)
    return total


def _attribute_node(acct: NodeEnergy, series: List[Tuple[float, float]],
                    spans: List[Tuple[float, float, int]],
                    baseline_w: float,
                    parent_of: Dict[int, int]) -> None:
    """Sweep the node's elementary intervals, splitting each one's energy."""
    times = [t for t, _ in series]
    t0, t1 = times[0], times[-1]
    boundaries = sorted({t0, t1}
                        | {s for s, _, _ in spans}
                        | {e for _, e, _ in spans}
                        | set(times))
    starts = sorted(spans)                      # by clipped start
    ends_heap: List[Tuple[float, int]] = []     # (end, span_id) of active
    active: Dict[int, float] = {}               # span_id -> clipped end
    next_start = 0
    sample_i = 0
    for a, b in zip(boundaries, boundaries[1:]):
        # activate spans starting at a; retire spans ending at or before a
        while next_start < len(starts) and starts[next_start][0] <= a:
            s, e, sid = starts[next_start]
            next_start += 1
            if e > a:
                active[sid] = e
                insort(ends_heap, (e, sid))
        while ends_heap and ends_heap[0][0] <= a:
            _, sid = ends_heap.pop(0)
            if active.get(sid, 0.0) <= a:
                active.pop(sid, None)
        # power endpoints by linear interpolation between samples
        while sample_i + 1 < len(times) and times[sample_i + 1] <= a:
            sample_i += 1
        energy = 0.5 * (_interp(series, sample_i, a)
                        + _interp(series, sample_i, b)) * (b - a)
        base = min(energy, baseline_w * (b - a))
        acct.baseline_j += base
        marginal = energy - base
        if marginal <= 0.0:
            continue
        residents = _deepest(active, parent_of)
        if not residents:
            acct.unattributed_j += marginal
            continue
        share = marginal / len(residents)
        for sid in residents:
            acct.by_span[sid] = acct.by_span.get(sid, 0.0) + share


def _interp(series: List[Tuple[float, float]], i: int, t: float) -> float:
    """Linear interpolation of watts at ``t``, with ``series[i].t <= t``."""
    ta, wa = series[i]
    if i + 1 >= len(series) or t <= ta:
        return wa
    tb, wb = series[i + 1]
    if t >= tb:
        return wb
    return wa + (wb - wa) * (t - ta) / (tb - ta)


def _deepest(active: Dict[int, float],
             parent_of: Dict[int, int]) -> List[int]:
    """Active spans with no active descendant (same node) — the residents."""
    if len(active) <= 1:
        return list(active)
    has_active_descendant = set()
    for sid in active:
        parent = parent_of.get(sid, 0)
        while parent:
            if parent in active:
                has_active_descendant.add(parent)
            parent = parent_of.get(parent, 0)
    return [sid for sid in active if sid not in has_active_descendant]
