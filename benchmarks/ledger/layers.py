"""Per-layer metrics: what is declared, and how a traced run fills it.

A traced run yields two additive records — the recorder's ledger
(:meth:`tracer.Recorder.to_dict`) and raw counts read from the farm
after the run (:func:`farm_raw_counts`).  Both sum across campaign
shards.  :func:`per_layer_metrics` derives every declared metric from
them, so ratios are always recomputed from summed numerators and
denominators, never averaged.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from tracer import LAYERS

VERDICTS = ("FORWARD", "DROP", "REFLECT")

# (metric suffix, unit, better) per layer, after the uniform
# calls / self_s / self_share triple every span layer gets.
EXTRA: Dict[str, List[Tuple[str, str, str]]] = {
    "sim.engine": [("events", "count", "lower"),
                   ("cancelled_share", "share", "lower"),
                   ("us_per_event", "us", "lower")],
    "net.link": [("frames", "count", "lower"),
                 ("coalesced_batches", "count", "higher")],
    "net.tcp": [("segments", "count", "lower"),
                ("connections", "count", "lower")],
    "net.packet": [("serializes", "count", "lower"),
                   ("parses", "count", "lower"),
                   ("copies", "count", "lower"),
                   ("copies_per_relayed_packet", "ratio", "lower")],
    "net.wirebatch": [("rows", "count", "higher"),
                      ("runs", "count", "lower"),
                      ("rows_per_run", "ratio", "higher"),
                      ("materialized_share", "share", "lower")],
    "gateway.gateway": [("frames", "count", "lower"),
                        ("batch_rows_mean", "ratio", "higher")],
    "gateway.router": [("packets_relayed", "count", "higher"),
                       ("flows_created", "count", "higher"),
                       ("slowpath_share", "share", "lower")],
    "gateway.flowtable": [("hits", "count", "higher"),
                          ("misses", "count", "lower"),
                          ("installs", "count", "lower"),
                          ("evictions", "count", "lower"),
                          ("hit_share", "share", "higher"),
                          ("installs_unhit_share", "share", "lower")],
    "gateway.safety": [("admits", "count", "higher"),
                       ("refused", "count", "lower")],
    "core.server": [("verdicts", "count", "higher")],
    "core.shim": [("encodes", "count", "lower"),
                  ("decodes", "count", "lower")],
    "core.policy": [("decisions", "count", "higher")] + [
        (f"verdict.{name}", "count", "higher") for name in VERDICTS],
    "obs.journal": [("events", "count", "lower"),
                    ("ns_per_event", "ns", "lower"),
                    ("events_per_flow", "ratio", "lower"),
                    ("overwritten", "count", "lower")],
    "obs.telemetry": [("snapshot_s", "s", "lower"),
                      ("instruments", "count", "lower")],
    "app": [("ops", "count", "higher"),
            ("pct_ms_p90", "ms", "lower")],
    "parallel.pool": [("dispatches", "count", "lower"),
                      ("speculations", "count", "lower"),
                      ("respawns", "count", "lower"),
                      ("spawn_s", "s", "lower"),
                      ("idle_share", "share", "lower")],
    "parallel.worker": [("shard_s_p50", "s", "lower"),
                        ("shard_s_max", "s", "lower"),
                        ("busy_s", "s", "lower")],
    "parallel.transport": [("bytes_out", "bytes", "lower"),
                           ("bytes_in", "bytes", "lower")],
    "trace": [("wall_s", "s", "lower"),
              ("overhead_ratio", "ratio", "lower"),
              ("completeness_err", "share", "lower")],
    "host": [("wall_raw_s", "s", "lower"),
             ("slowdown", "ratio", "lower")],
}


def declared() -> List[dict]:
    """The ``per_layer`` list of BENCHMARK.json, in ledger order."""
    out = []
    for layer in LAYERS:
        for suffix, unit in (("calls", "count"), ("self_s", "s"),
                             ("self_share", "share")):
            out.append({"name": f"{layer}.{suffix}", "unit": unit,
                        "better": "lower"})
    for layer, extras in EXTRA.items():
        for suffix, unit, better in extras:
            out.append({"name": f"{layer}.{suffix}", "unit": unit,
                        "better": better})
    return out


# ----------------------------------------------------------------------
# Raw, additive counts read off a finished farm
# ----------------------------------------------------------------------
def farm_raw_counts(farm, app, rec=None, telemetry_snapshot=None) -> dict:
    routers = [sub.router for sub in farm.subfarms.values()]
    servers = [server for sub in farm.subfarms.values() for server in
               [sub.containment_server] + sub.extra_containment_servers]
    tables = [router.flowtable.stats() for router in routers]
    journal = farm.sim.journal
    raw = {
        "events": farm.sim.events_processed,
        "gateway_frames": farm.gateway.frames_received,
        "packets_relayed": sum(r.counters["packets_relayed"]
                               for r in routers),
        "flows_created": sum(r.counters["flows_created"] for r in routers),
        "flows_refused": sum(r.counters["flows_refused"] for r in routers),
        "ft_hits": sum(t["hits"] for t in tables),
        "ft_misses": sum(t["misses"] for t in tables),
        "ft_installs": sum(t["installs"] for t in tables),
        "ft_evictions": sum(t["evictions"] for t in tables),
        "verdicts": sum(len(s.verdict_log) for s in servers),
        "journal_events": getattr(journal, "recorded", 0),
        "journal_overwritten": getattr(journal, "evicted", 0),
        "app_ops": app.attempted,
        "instruments": 0,
        "entries_unhit": 0,
    }
    for name in VERDICTS:
        raw[f"verdict.{name}"] = sum(
            s.verdict_counts.get(name, 0) for s in servers)
    if telemetry_snapshot is not None:
        raw["instruments"] = sum(
            len(telemetry_snapshot[family])
            for family in ("counters", "gauges", "histograms"))
    if rec is not None:
        raw["entries_unhit"] = sum(
            1 for entry in rec.flow_entries if not entry.hits)
    return raw


def merge_additive(parts: List[dict]) -> dict:
    """Sum dicts of numbers (recursing into nested dicts)."""
    out: dict = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, dict):
                out[key] = merge_additive([out.get(key, {}), value])
            elif isinstance(value, str):
                out[key] = value
            else:
                out[key] = out.get(key, 0) + value
    return out


# ----------------------------------------------------------------------
def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(ledger: dict, raw: dict, clock: dict,
                      campaign: dict = None) -> Dict[str, float]:
    """Every declared per-layer metric for one traced run.

    ``clock`` holds the traced run's ``wall_raw_s``, its ``wall_s`` at
    reference speed, the host ``slowdown`` between the two, the
    ``untraced_wall_s`` (reference speed) it is compared with, and
    ``pct_ms_tail``, the traced run's p90 slice cost.  Span
    times (``self_s``) are raw seconds: within one run only their
    shares matter.  ``campaign`` (campaign_sweep only) carries the
    master-side numbers no farm has: scheduler stats, per-shard
    seconds, wire bytes.
    """
    entries = ledger["entry_points"]
    counts = ledger["counts"]

    def calls(*labels: str) -> int:
        return sum(entries[label]["calls"] for label in labels
                   if label in entries)

    def self_s(*labels: str) -> float:
        return sum(entries[label]["self_s"] for label in labels
                   if label in entries)

    totals = {layer: [0, 0.0] for layer in LAYERS}
    for entry in entries.values():
        totals[entry["layer"]][0] += entry["calls"]
        totals[entry["layer"]][1] += entry["self_s"]
    total_self = sum(cell[1] for cell in totals.values())

    m: Dict[str, float] = {}
    for layer, (n, seconds) in totals.items():
        m[f"{layer}.calls"] = n
        m[f"{layer}.self_s"] = seconds
        m[f"{layer}.self_share"] = _share(seconds, total_self)

    kinds = ("EthernetFrame", "IPv4Packet", "TCPSegment", "UDPDatagram")
    serializes = calls(*(f"{k}.to_bytes" for k in kinds))
    parses = calls(*(f"{k}.from_bytes" for k in kinds))
    copies = calls(*(f"{k}.copy" for k in kinds))
    rows = calls("WireBatch.append_tcp", "WireBatch.append_udp",
                 "WireBatch.append_packet")
    runs = counts.get("net.wirebatch.runs", 0)
    batches = calls("Gateway.receive_frame_batch")
    # Frames a batch carried never pass through the scalar entry.
    batch_rows = raw["gateway_frames"] - calls("Gateway.receive_frame")
    probes = raw["ft_hits"] + raw["ft_misses"]
    events = raw["events"]
    cancels = counts.get("sim.engine.cancels", 0)
    journal_s = self_s("Journal.record")

    m.update({
        "sim.engine.events": events,
        "sim.engine.cancelled_share": _share(cancels, events + cancels),
        "sim.engine.us_per_event": _share(
            self_s("Simulator.run", "Simulator.step") * 1e6, events),
        "net.link.frames": calls("Link.transmit"),
        "net.link.coalesced_batches": batches,
        "net.tcp.segments": calls("TcpStack.packet_arrived"),
        "net.tcp.connections": calls("TcpStack.connect"),
        "net.packet.serializes": serializes,
        "net.packet.parses": parses,
        "net.packet.copies": copies,
        "net.packet.copies_per_relayed_packet": _share(
            copies, raw["packets_relayed"]),
        "net.wirebatch.rows": rows,
        "net.wirebatch.runs": runs,
        "net.wirebatch.rows_per_run": _share(rows, runs),
        "net.wirebatch.materialized_share": _share(
            calls("WireBatch.materialize"), rows),
        "gateway.gateway.frames": raw["gateway_frames"],
        "gateway.gateway.batch_rows_mean": _share(batch_rows, batches),
        "gateway.router.packets_relayed": raw["packets_relayed"],
        "gateway.router.flows_created": raw["flows_created"],
        "gateway.router.slowpath_share": _share(raw["ft_misses"], probes),
        "gateway.flowtable.hits": raw["ft_hits"],
        "gateway.flowtable.misses": raw["ft_misses"],
        "gateway.flowtable.installs": raw["ft_installs"],
        "gateway.flowtable.evictions": raw["ft_evictions"],
        "gateway.flowtable.hit_share": _share(raw["ft_hits"], probes),
        "gateway.flowtable.installs_unhit_share": _share(
            raw["entries_unhit"],
            counts.get("gateway.flowtable.entries", 0)),
        "gateway.safety.admits": calls("SafetyFilter.admit"),
        "gateway.safety.refused": raw["flows_refused"],
        "core.server.verdicts": raw["verdicts"],
        "core.shim.encodes": calls("RequestShim.to_bytes",
                                   "ResponseShim.to_bytes"),
        "core.shim.decodes": calls("RequestShim.from_bytes",
                                   "ResponseShim.from_bytes"),
        "core.policy.decisions": calls(
            "AllowAll.decide", "AllowAll.decide_content",
            "DslPolicy.decide", "DslPolicy.decide_content"),
        "obs.journal.events": raw["journal_events"],
        "obs.journal.ns_per_event": _share(journal_s * 1e9,
                                           calls("Journal.record")),
        "obs.journal.events_per_flow": _share(raw["journal_events"],
                                              raw["flows_created"]),
        "obs.journal.overwritten": raw["journal_overwritten"],
        "obs.telemetry.snapshot_s": self_s("Farm.telemetry_snapshot"),
        "obs.telemetry.instruments": raw["instruments"],
        "app.ops": raw["app_ops"],
        "app.pct_ms_p90": clock["pct_ms_tail"],
        "trace.wall_s": clock["wall_s"],
        "trace.overhead_ratio": _share(clock["wall_s"],
                                       clock["untraced_wall_s"]),
        "trace.completeness_err": abs(
            _share(total_self - ledger["root_s"], ledger["root_s"])),
        "host.wall_raw_s": clock["wall_raw_s"],
        "host.slowdown": clock["slowdown"],
    })
    for name in VERDICTS:
        m[f"core.policy.verdict.{name}"] = raw[f"verdict.{name}"]

    c = campaign or {}
    shard_s = c.get("shard_seconds") or [0.0]
    stats = c.get("scheduler") or {}
    busy = sum(shard_s)
    workers = c.get("workers", 1)
    m.update({
        "parallel.pool.dispatches": stats.get("dispatches", 0),
        "parallel.pool.speculations": stats.get("speculations", 0),
        "parallel.pool.respawns": stats.get("respawns", 0),
        "parallel.pool.spawn_s": self_s("LocalTransport.launch"),
        "parallel.pool.idle_share": (
            1.0 - _share(busy, workers * clock["wall_raw_s"])
            if campaign else 0.0),
        "parallel.worker.shard_s_p50": statistics.median(shard_s),
        "parallel.worker.shard_s_max": max(shard_s),
        "parallel.worker.busy_s": busy,
        "parallel.transport.bytes_out": c.get("bytes_out", 0),
        "parallel.transport.bytes_in": c.get("bytes_in", 0),
    })
    return m
