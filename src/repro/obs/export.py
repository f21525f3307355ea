"""Snapshot exporters: the telemetry domain as JSON or text.

A snapshot is a plain dict (JSON-ready, keys sorted) capturing every
counter, gauge and histogram summary at one virtual instant — schema
``gq.telemetry/2``, exactly the keys ``schema, enabled, time,
counters, gauges, histograms``.  Because all inputs are deterministic
under a fixed seed, ``to_json`` produces byte-identical output across
replays — snapshots can be diffed like any other run artifact.

Metric identities render as ``name{label=value,...}`` with labels in
sorted order (see :func:`repro.obs.metrics.format_key`).
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    format_key,
    parse_identity,
)

SNAPSHOT_SCHEMA = "gq.telemetry/2"


def snapshot(telemetry) -> dict:
    """Capture the whole telemetry domain as a JSON-ready dict."""
    enabled = bool(getattr(telemetry, "enabled", False))
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, dict] = {}
    out: dict = {
        "schema": SNAPSHOT_SCHEMA,
        "enabled": enabled,
        "time": telemetry.clock() if enabled else 0.0,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }
    if not enabled:
        return out
    for metric in telemetry.metrics():
        for key, cell in sorted(metric.cells().items()):
            identity = format_key(metric.name, key)
            if isinstance(metric, Counter):
                counters[identity] = float(cell.value)
            elif isinstance(metric, Gauge):
                gauges[identity] = cell.value
            elif isinstance(metric, Histogram):
                entry = cell.summary()
                entry["buckets"] = [
                    [bound, count]
                    for bound, count in zip(
                        list(cell.bounds) + ["+inf"], cell.bucket_counts)
                    if count
                ]
                histograms[identity] = entry
    return out


def to_json(telemetry, indent: int = None) -> str:
    """Deterministic JSON rendering of :func:`snapshot`."""
    return json.dumps(snapshot(telemetry), sort_keys=True, indent=indent)


def render_text(telemetry) -> str:
    """Human-readable snapshot — the report appendix format."""
    snap = snapshot(telemetry)
    lines: List[str] = []
    if not snap["enabled"]:
        return "(telemetry disabled)"
    lines.append(f"Telemetry snapshot at t={snap['time']:.3f}s")
    if snap["counters"]:
        lines.append("")
        lines.append("Counters")
        for identity, value in snap["counters"].items():
            lines.append(f"  {identity:<60} {value:>12g}")
    if snap["gauges"]:
        lines.append("")
        lines.append("Gauges")
        for identity, value in snap["gauges"].items():
            lines.append(f"  {identity:<60} {value:>12g}")
    if snap["histograms"]:
        lines.append("")
        lines.append("Histograms")
        for identity, entry in snap["histograms"].items():
            lines.append(
                f"  {identity:<60} n={entry['count']:g} "
                f"p50={entry.get('p50', 0.0):.6f} "
                f"p95={entry.get('p95', 0.0):.6f} "
                f"p99={entry.get('p99', 0.0):.6f}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Interchange formats: OpenMetrics (telemetry), JSONL event stream and
# Chrome trace (journal).  All three consume *snapshot dicts* (not
# live domains), so they work equally on a live farm's capture, a
# ``--snapshot``/``--journal`` file, and a shard-labeled merged
# snapshot from a parallel campaign.
# ----------------------------------------------------------------------
def _om_name(name: str) -> str:
    """OpenMetrics-safe metric name (dots become underscores)."""
    return "".join(ch if (ch.isalnum() or ch == "_") else "_"
                   for ch in name)


def _om_labels(pairs) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{_om_name(k)}="{v}"' for k, v in pairs)
    return f"{{{inner}}}"


def render_openmetrics(snap: dict) -> str:
    """A telemetry snapshot as OpenMetrics text (``# TYPE`` headers,
    sanitized names, terminated by ``# EOF``)."""
    lines: List[str] = []
    families: Dict[str, List[str]] = {}
    kinds: Dict[str, str] = {}
    for section, kind in (("counters", "counter"), ("gauges", "gauge")):
        for identity in sorted(snap.get(section) or {}):
            name, pairs = parse_identity(identity)
            om = _om_name(name)
            kinds[om] = kind
            suffix = "_total" if kind == "counter" else ""
            families.setdefault(om, []).append(
                f"{om}{suffix}{_om_labels(pairs)} "
                f"{snap[section][identity]:g}")
    for identity in sorted(snap.get("histograms") or {}):
        entry = snap["histograms"][identity]
        name, pairs = parse_identity(identity)
        om = _om_name(name)
        kinds[om] = "histogram"
        samples = families.setdefault(om, [])
        cumulative = 0
        for bound, count in entry.get("buckets", []):
            cumulative += count
            le = "+Inf" if bound == "+inf" else f"{bound:g}"
            samples.append(
                f"{om}_bucket{_om_labels(pairs + [('le', le)])} "
                f"{cumulative:g}")
        samples.append(f"{om}_count{_om_labels(pairs)} "
                       f"{entry.get('count', 0):g}")
        samples.append(f"{om}_sum{_om_labels(pairs)} "
                       f"{entry.get('sum', 0.0):g}")
    for om in sorted(families):
        lines.append(f"# TYPE {om} {kinds[om]}")
        lines.extend(families[om])
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def render_jsonl(journal_snap: dict) -> str:
    """A journal snapshot as a JSONL event stream: one sorted-key JSON
    object per line, header line first."""
    lines = [json.dumps(
        {"schema": journal_snap.get("schema"),
         "time": journal_snap.get("time"),
         "recorded": journal_snap.get("recorded"),
         "evicted": journal_snap.get("evicted")}, sort_keys=True)]
    for event in journal_snap.get("events", []):
        lines.append(json.dumps(event, sort_keys=True))
    return "\n".join(lines) + "\n"


def render_chrome_trace(journal_snap: dict, indent: int = None) -> str:
    """A journal snapshot in Chrome trace-event JSON, viewable in
    ``about:tracing`` / Perfetto: every event an instant ("i") on a
    track per VLAN, virtual seconds mapped to trace microseconds."""
    trace_events = []
    for event in journal_snap.get("events", []):
        vlan = event.get("vlan")
        trace_events.append({
            "name": event["kind"],
            "cat": "journal",
            "ph": "i",
            "s": "t",
            "pid": 2,
            "tid": f"vlan{vlan}" if vlan is not None else "farm",
            "ts": round(event["t"] * 1e6, 3),
            "args": {"flow": event.get("flow"),
                     "seq": event["seq"],
                     "parent": event.get("parent"),
                     **(event.get("fields") or {})},
        })
    document = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    return json.dumps(document, sort_keys=True, indent=indent)
