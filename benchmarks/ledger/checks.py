"""Output checks: did the farm do what the workload asked of it?

Per-operation results (echo bytes, ``pong`` bodies) are checked by the
inmate images as they happen (``AppStats.correct``).  This module adds
what only the finished farm can show: every scan probe's logged
verdict against an independent statement of the policy, reflected
probes landing in the sink byte-for-byte, and **containment** — the
upstream trace carrying nothing but the flows the policy forwards.

A containment violation fails the run outright; everything else feeds
``failed``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.net.addresses import IPv4Address
from repro.net.packet import PROTO_TCP, PROTO_UDP

import workloads


def expected_verdict(proto: int, port: int) -> str:
    """What ``workloads.SCAN_PROGRAM`` prescribes, restated by hand so
    a DSL parser or rule-walk bug cannot agree with itself."""
    if proto == PROTO_TCP and port == 445:
        return "REFLECT"
    if proto == PROTO_TCP and 135 <= port <= 139:
        return "DROP"
    if proto == PROTO_UDP and port == 1434:
        return "DROP"
    if proto == PROTO_TCP and port == 80:
        return "FORWARD"
    return "REFLECT"


def containment_violations(farm, allowed_ip: str, allowed_port: int) -> int:
    """Upstream frames that are not TCP to/from the one external
    endpoint the workload's policy forwards to."""
    allowed = IPv4Address(allowed_ip)
    bad = 0
    for record in farm.gateway.upstream_trace.records:
        packet = record.ip
        if packet is None:
            continue  # ARP on the upstream segment is not inmate traffic
        if packet.proto != PROTO_TCP:
            bad += 1
            continue
        segment = packet.tcp
        outbound = packet.dst == allowed and segment.dport == allowed_port
        inbound = packet.src == allowed and segment.sport == allowed_port
        if not (outbound or inbound):
            bad += 1
    return bad


def _scan_correct(built, notes: List[str]) -> int:
    logged: Dict[tuple, str] = {}
    for sub in built.farm.subfarms.values():
        for entry in sub.router.flow_log:
            orig = entry.orig
            logged[(orig.orig_ip.value, orig.orig_port, orig.resp_ip.value,
                    orig.resp_port, orig.proto)] = entry.verdict
    correct = 0
    reflected = forwarded = 0
    for probe in built.app.probes:
        want = expected_verdict(probe[4], probe[3])
        if logged.get(probe) == want:
            correct += 1
        if probe[4] == PROTO_TCP:
            reflected += want == "REFLECT"
            forwarded += want == "FORWARD"

    # Reflected probes must land in a sink with their bytes; forwarded
    # ones at the web host (whose byte count the app kept).
    sunk = [record for sink in built.sinks for record in sink.records
            if record.proto == "tcp"]
    whole = sum(1 for record in sunk
                if len(record.payload) == workloads.PROBE_BYTES)
    if whole != reflected:
        notes.append(f"sink holds {whole} whole probes, "
                     f"{reflected} were reflected")
        correct -= abs(reflected - whole)
    delivered = built.app.payload_bytes
    if delivered != forwarded * workloads.PROBE_BYTES:
        notes.append(f"web host got {delivered} B from "
                     f"{forwarded} forwarded probes")
        correct -= 1
    return max(0, correct)


def check_farm(workload: str, built) -> dict:
    app = built.app
    notes: List[str] = []
    if workload == "scan_journaled":
        correct = _scan_correct(built, notes)
    else:
        correct = app.correct
    if workload.startswith("stream"):
        endpoint = (workloads.ECHO_IP, workloads.ECHO_PORT)
    else:
        endpoint = (workloads.WEB_IP, 80)
    leaks = containment_violations(built.farm, *endpoint)
    if leaks:
        notes.append(f"{leaks} upstream frames outside {endpoint}")
    return {
        "attempted": app.attempted,
        "failed": app.attempted - correct,
        "contained": leaks == 0,
        "notes": notes,
    }


def check_campaign(result, shards: int) -> dict:
    """A shard counts as correct when it merged ok, every fetch inside
    it returned ``pong``, and its own upstream trace was clean."""
    notes = [f"shard {f['shard']}: {f.get('kind')}: {f.get('message')}"
             for f in result.failures]
    good = 0
    contained = True
    for shard in result.shard_results:
        if not shard.ok:
            continue
        inner = shard.payload["run"]["checks"]
        contained = contained and inner["contained"]
        if inner["attempted"] and not inner["failed"] and inner["contained"]:
            good += 1
        else:
            notes.append(f"shard {shard.index}: {inner['failed']} of "
                         f"{inner['attempted']} fetches failed; "
                         + "; ".join(inner["notes"]))
    return {
        "attempted": shards,
        "failed": shards - good,
        "contained": contained,
        "notes": notes,
    }
