"""Exporters: Chrome trace-event JSON, JSON-lines and CSV.

``to_chrome_trace`` maps a :class:`~repro.trace.events.TraceLog` onto
the Chrome trace-event format, loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``: spans become complete
("X") events, instants become "i", counter samples become "C", and each
simulated node gets its own named thread track.  Timestamps are emitted
in microseconds as the format requires.

The JSONL and CSV forms round-trip: :func:`read_jsonl` and
:func:`read_csv` re-parse what :func:`write_jsonl` / :func:`write_csv`
wrote into an equivalent :class:`TraceLog` — timestamps and durations
exactly (CSV stores them as ``repr`` so no precision is lost), which is
what lets offline tooling post-process exported traces without access
to the run.
"""

from __future__ import annotations

import csv
import json
from typing import Dict, List

from .events import PHASE_COUNTER, PHASE_SPAN, TraceEvent, TraceLog

#: Chrome trace timestamps are microseconds; the simulation runs in seconds.
_US = 1e6

#: pid under which every track is filed (one simulated cluster = one process).
_PID = 1


def to_chrome_trace(log: TraceLog) -> Dict:
    """Render ``log`` as a Chrome trace-event JSON object (a dict)."""
    tids: Dict[str, int] = {}

    def tid_of(node: str) -> int:
        if node not in tids:
            tids[node] = len(tids)
        return tids[node]

    events: List[Dict] = []
    for event in log:
        entry = {
            "name": event.name,
            "cat": event.category,
            "pid": _PID,
            "tid": tid_of(event.node),
            "ts": event.ts * _US,
            "ph": event.phase,
        }
        if event.phase == PHASE_SPAN:
            entry["dur"] = event.dur * _US
            if event.attrs:
                entry["args"] = dict(event.attrs)
            if event.span_id:
                # Causal identity rides along in args so Perfetto shows
                # it and offline tooling can rebuild the span forest.
                args = entry.setdefault("args", {})
                args["trace_id"] = event.trace_id
                args["span_id"] = event.span_id
                args["parent_id"] = event.parent_id
        elif event.phase == PHASE_COUNTER:
            # Counter tracks plot their args values over time.
            entry["args"] = {event.name: event.attrs.get("value", 0.0)}
        else:
            entry["s"] = "t"   # thread-scoped instant
            if event.attrs:
                entry["args"] = dict(event.attrs)
        events.append(entry)
    metadata: List[Dict] = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": "repro simulation"},
    }]
    for node, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        metadata.append({
            "name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
            "args": {"name": node or "cluster"},
        })
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(log: TraceLog, path: str) -> None:
    """Write ``log`` to ``path`` as Chrome trace-event JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(log), handle)


def write_jsonl(log: TraceLog, path: str) -> None:
    """Write ``log`` to ``path`` as one JSON object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for event in log:
            handle.write(json.dumps(_event_dict(event)) + "\n")


#: CSV column order; ``_CSV_LEGACY_HEADER`` (pre-span-identity files) is
#: still accepted by :func:`read_csv`, loading with all ids 0.
_CSV_HEADER = ["ts", "dur", "phase", "category", "name", "node", "attrs",
               "trace_id", "span_id", "parent_id"]
_CSV_LEGACY_HEADER = _CSV_HEADER[:7]


def write_csv(log: TraceLog, path: str) -> None:
    """Write ``log`` to ``path`` as CSV (attrs JSON-encoded in one column)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_HEADER)
        for event in log:
            writer.writerow((repr(event.ts), repr(event.dur), event.phase,
                             event.category, event.name, event.node,
                             json.dumps(event.attrs), event.trace_id,
                             event.span_id, event.parent_id))


def _event_dict(event: TraceEvent) -> Dict:
    data = {"ts": event.ts, "dur": event.dur, "phase": event.phase,
            "category": event.category, "name": event.name,
            "node": event.node, "attrs": dict(event.attrs)}
    if event.span_id:
        data["trace_id"] = event.trace_id
        data["span_id"] = event.span_id
        data["parent_id"] = event.parent_id
    return data


def read_jsonl(path: str) -> TraceLog:
    """Re-parse a :func:`write_jsonl` file into a fresh TraceLog."""
    log = TraceLog()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            log.append(TraceEvent(
                ts=data["ts"], dur=data["dur"], phase=data["phase"],
                category=data["category"], name=data["name"],
                node=data["node"], attrs=dict(data["attrs"]),
                trace_id=data.get("trace_id", 0),
                span_id=data.get("span_id", 0),
                parent_id=data.get("parent_id", 0)))
    return log


def read_csv(path: str) -> TraceLog:
    """Re-parse a :func:`write_csv` file into a fresh TraceLog."""
    log = TraceLog()
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header not in (_CSV_HEADER, _CSV_LEGACY_HEADER):
            raise ValueError(f"{path}: not a repro trace CSV "
                             f"(header {header!r})")
        legacy = header == _CSV_LEGACY_HEADER
        for row in reader:
            ts, dur, phase, category, name, node, attrs = row[:7]
            trace_id, span_id, parent_id = \
                (0, 0, 0) if legacy else (int(row[7]), int(row[8]),
                                          int(row[9]))
            log.append(TraceEvent(
                ts=float(ts), dur=float(dur), phase=phase,
                category=category, name=name, node=node,
                attrs=json.loads(attrs), trace_id=trace_id,
                span_id=span_id, parent_id=parent_id))
    return log
