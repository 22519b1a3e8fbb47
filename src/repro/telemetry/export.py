"""Telemetry exporters: JSON bundle, Prometheus text, HTML dashboard.

The *bundle* (a plain dict, produced by
:meth:`~repro.telemetry.scrapers.Telemetry.bundle`) is the interchange
format: the CLI saves it as JSON after a monitored run, and the
``repro report`` subcommand re-loads it to print summaries, emit
Prometheus text exposition, or render a self-contained HTML dashboard
whose per-node sparkline tables mirror the paper's Figures 12-17
(utilisation and power over time, per node).  The dashboard embeds its
series as inline SVG — no JavaScript, no external assets — so the file
can be attached to a CI run and opened anywhere.
"""

from __future__ import annotations

import html
import json
import re
from typing import Dict, List, Sequence, Tuple

from .rules import Alert
from .slo import DetectionReport, SloReport

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")

#: Sparkline geometry (pixels).
_SPARK_W, _SPARK_H = 160, 28


def load_bundle(path: str) -> Dict:
    """Load a telemetry bundle written by :meth:`Telemetry.save`."""
    with open(path, "r", encoding="utf-8") as handle:
        bundle = json.load(handle)
    if not isinstance(bundle, dict) or "series" not in bundle:
        raise ValueError(f"{path}: not a telemetry bundle")
    return bundle


def _prom_name(name: str) -> str:
    return "repro_" + _NAME_RE.sub("_", name)


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{_NAME_RE.sub("_", k)}="{v}"'
                     for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def to_prometheus(bundle: Dict) -> str:
    """Latest value of every series in Prometheus text exposition.

    A simulated run has no live scrape endpoint, so this is the
    node-exporter-style snapshot of the final state — suitable for
    ``promtool check metrics`` or pushing through a Pushgateway.
    """
    by_name: Dict[str, List[Tuple[Dict[str, str], float, float]]] = {}
    for entry in bundle.get("series", []):
        if not entry["times"]:
            continue
        by_name.setdefault(entry["name"], []).append(
            (entry.get("labels", {}), entry["times"][-1],
             entry["values"][-1]))
    lines: List[str] = []
    for name in sorted(by_name):
        prom = _prom_name(name)
        kind = "counter" if name.endswith("_total") else "gauge"
        lines.append(f"# TYPE {prom} {kind}")
        for labels, _ts, value in sorted(by_name[name],
                                         key=lambda e: sorted(e[0].items())):
            lines.append(f"{prom}{_prom_labels(labels)} {value!r}")
    return "\n".join(lines) + "\n"


def write_prometheus(bundle: Dict, path: str) -> None:
    """Write :func:`to_prometheus` output to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_prometheus(bundle))


# -- HTML dashboard -------------------------------------------------------

def _sparkline(times: Sequence[float], values: Sequence[float]) -> str:
    """An inline SVG polyline of the series (decimated to the width)."""
    if not times:
        return ""
    if len(times) > _SPARK_W:
        # One sample per horizontal pixel is all the polyline can show.
        step = len(times) / _SPARK_W
        indices = [int(i * step) for i in range(_SPARK_W)] + [len(times) - 1]
        times = [times[i] for i in indices]
        values = [values[i] for i in indices]
    t_lo, t_hi = times[0], times[-1]
    v_lo, v_hi = min(values), max(values)
    t_span = (t_hi - t_lo) or 1.0
    v_span = (v_hi - v_lo) or 1.0
    points = " ".join(
        f"{(t - t_lo) / t_span * _SPARK_W:.1f},"
        f"{_SPARK_H - 2 - (v - v_lo) / v_span * (_SPARK_H - 4):.1f}"
        for t, v in zip(times, values))
    return (f'<svg width="{_SPARK_W}" height="{_SPARK_H}" '
            f'viewBox="0 0 {_SPARK_W} {_SPARK_H}">'
            f'<polyline fill="none" stroke="#2b6cb0" stroke-width="1.2" '
            f'points="{points}"/></svg>')


def _stat_cells(values: Sequence[float]) -> str:
    mean = sum(values) / len(values)
    return (f"<td>{min(values):.3g}</td><td>{mean:.3g}</td>"
            f"<td>{max(values):.3g}</td><td>{values[-1]:.3g}</td>")


def _metric_section(name: str, entries: List[Dict]) -> List[str]:
    out = [f"<h3><code>{html.escape(name)}</code></h3>",
           "<table><tr><th>series</th><th>trend</th><th>min</th>"
           "<th>mean</th><th>max</th><th>last</th></tr>"]
    def sort_key(entry):
        return sorted(entry.get("labels", {}).items())
    for entry in sorted(entries, key=sort_key):
        labels = entry.get("labels", {})
        label = labels.get("node") or ",".join(
            f"{k}={v}" for k, v in sorted(labels.items())) or "cluster"
        out.append(
            f"<tr><td>{html.escape(label)}</td>"
            f"<td>{_sparkline(entry['times'], entry['values'])}</td>"
            f"{_stat_cells(entry['values'])}</tr>")
    out.append("</table>")
    return out


def _dvfs_section(dvfs: Dict) -> List[str]:
    """Energy-proportionality scorecards from ``bundle["dvfs"]``."""
    from ..dvfs.scorecard import ProportionalityScorecard
    out = ["<h2>Energy proportionality</h2>"]
    for data in dvfs.get("scorecards", []):
        card = ProportionalityScorecard.from_dict(data)
        out.append(f"<h3>{html.escape(card.platform)} {html.escape(card.scale)}"
                   f" — governor {html.escape(card.governor)}</h3>")
        out.append(f"<p>idle {card.idle_w:.2f} W, peak {card.peak_w:.2f} W, "
                   f"dynamic range {card.dynamic_range:.3f}, "
                   f"proportionality gap {card.proportionality_gap:.3f}</p>")
        out.append("<table><tr><th>load</th><th>offered rps</th>"
                   "<th>power</th><th>calls/kJ</th></tr>")
        best = card.best_point
        for point in card.points:
            marker = " &#8592; best" if point is best else ""
            out.append(f"<tr><td>{point.fraction:.0%}</td>"
                       f"<td>{point.offered_rps:.0f}</td>"
                       f"<td>{point.mean_power_w:.2f} W</td>"
                       f"<td>{point.work_per_joule * 1000:.0f}"
                       f"{marker}</td></tr>")
        out.append("</table>")
    return out


def render_dashboard(bundle: Dict) -> str:
    """The bundle as one self-contained HTML page."""
    meta = bundle.get("meta", {})
    title = "repro telemetry"
    if meta.get("kind"):
        title += f" — {meta['kind']}"
    if meta.get("platform"):
        title += f" on {meta['platform']}"
    out = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title>",
        "<style>",
        "body{font-family:sans-serif;margin:2em;color:#1a202c}",
        "table{border-collapse:collapse;margin:0.5em 0}",
        "td,th{border:1px solid #cbd5e0;padding:2px 8px;"
        "font-size:13px;text-align:left}",
        "th{background:#edf2f7}",
        ".firing{color:#c53030;font-weight:bold}",
        ".resolved{color:#718096}",
        "pre{background:#f7fafc;border:1px solid #e2e8f0;padding:0.8em}",
        "</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
    ]
    if meta:
        pairs = ", ".join(f"{html.escape(str(k))}={html.escape(str(v))}"
                          for k, v in sorted(meta.items()))
        out.append(f"<p>{pairs}</p>")

    alerts = [Alert.from_dict(a) for a in bundle.get("alerts", [])]
    out.append(f"<h2>Alerts ({len(alerts)})</h2>")
    if alerts:
        out.append("<table><tr><th>rule</th><th>node</th><th>fired</th>"
                   "<th>resolved</th><th>value</th></tr>")
        for alert in alerts:
            state = ("<span class='resolved'>"
                     f"{alert.resolved_at:.2f}s</span>"
                     if alert.resolved_at is not None
                     else "<span class='firing'>firing</span>")
            out.append(f"<tr><td>{html.escape(alert.rule)}</td>"
                       f"<td>{html.escape(alert.node or '-')}</td>"
                       f"<td>{alert.fired_at:.2f}s</td><td>{state}</td>"
                       f"<td>{alert.value:.3g}</td></tr>")
        out.append("</table>")
    else:
        out.append("<p>None fired.</p>")

    if bundle.get("slo"):
        slo = SloReport.from_dict(bundle["slo"])
        out.append("<h2>SLO</h2><pre>"
                   + html.escape("\n".join(slo.lines())) + "</pre>")
    if bundle.get("detection"):
        detection = DetectionReport.from_dict(bundle["detection"])
        out.append("<h2>Fault detection</h2><pre>"
                   + html.escape("\n".join(detection.lines())) + "</pre>")
    if bundle.get("dvfs"):
        out.extend(_dvfs_section(bundle["dvfs"]))

    by_name: Dict[str, List[Dict]] = {}
    for entry in bundle.get("series", []):
        if entry["times"]:
            by_name.setdefault(entry["name"], []).append(entry)
    out.append("<h2>Metrics</h2>")
    for name in sorted(by_name):
        out.extend(_metric_section(name, by_name[name]))
    out.append("</body></html>")
    return "\n".join(out)


def write_dashboard(bundle: Dict, path: str) -> None:
    """Render and write the HTML dashboard."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_dashboard(bundle))


def summary_lines(bundle: Dict) -> List[str]:
    """The CLI ``report`` subcommand's plain-text view of a bundle."""
    meta = bundle.get("meta", {})
    out = []
    if meta:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        out.append(f"Run: {pairs}")
    names = sorted({e["name"] for e in bundle.get("series", [])})
    total = sum(len(e["times"]) for e in bundle.get("series", []))
    out.append(f"Series: {len(bundle.get('series', []))} "
               f"({total} samples, {len(names)} metrics)")
    alerts = [Alert.from_dict(a) for a in bundle.get("alerts", [])]
    if alerts:
        out.append(f"Alerts: {len(alerts)} fired")
        for alert in alerts:
            where = f" on {alert.node}" if alert.node else ""
            state = (f"resolved t={alert.resolved_at:.2f}s"
                     if alert.resolved_at is not None else "still active")
            out.append(f"  {alert.rule}{where}: fired "
                       f"t={alert.fired_at:.2f}s, {state}")
    else:
        out.append("Alerts: none fired")
    if bundle.get("slo"):
        out.extend(SloReport.from_dict(bundle["slo"]).lines())
    if bundle.get("detection"):
        out.extend(DetectionReport.from_dict(bundle["detection"]).lines())
    if bundle.get("dvfs"):
        from ..dvfs.scorecard import ProportionalityScorecard
        for data in bundle["dvfs"].get("scorecards", []):
            out.extend(ProportionalityScorecard.from_dict(data).lines())
    return out
