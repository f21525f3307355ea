"""Trace analyzers: the shim protocol and SMTP activity.

"We developed an analyzer for the shimming protocol to keep track of
all containment activity on the inmate network, and track specific
additional classes of traffic as needed (for example, we leverage
Bro's SMTP analyzer to track attempted and succeeding message delivery
for our spambots)."

Both analyzers work from captured packet traces — the same evidence a
real Bro instance would see — not from internal gateway state, so the
reports double as an independent check that the gateway enforces
verdicts as configured.  Both keep counts, never a copy per event: a
flow's one per-flow record is the gateway's flow log.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.shim import (
    RequestShim,
    ResponseShim,
    SHIM_MAGIC,
    ShimError,
    TYPE_REQUEST,
    TYPE_RESPONSE,
    peek_length,
)
from repro.net.capture import PacketTrace, TraceRecord
from repro.net.flow import FiveTuple
from repro.net.packet import PROTO_TCP, PROTO_UDP


def _shim_payload(record: TraceRecord) -> Optional[bytes]:
    ip = record.ip
    if ip is None:
        return None
    if ip.proto == PROTO_TCP:
        payload = ip.tcp.payload
    elif ip.proto == PROTO_UDP:
        payload = ip.udp.payload
    else:
        return None
    if len(payload) < 8:
        return None
    magic = int.from_bytes(payload[:4], "big")
    return payload if magic == SHIM_MAGIC else None


class ShimAnalyzer:
    """Counts containment activity from shim-protocol traffic.

    Each request shim matched to its response is folded into its
    VLAN's aggregates at once: ``policies[vlan]`` (the newest policy a
    response named) and ``groups[vlan][verdict][(annotation, target,
    port)]`` (flows).  Counts go in as responses arrive, so ties in a
    report sorted by count keep that order.

    Post-hoc (pass a trace) or streaming (:meth:`streaming` subscribes
    the analyzer so day-scale runs never retain packets).
    """

    def __init__(self, trace: Optional[PacketTrace] = None) -> None:
        self.policies: Dict[int, str] = {}
        self.groups: Dict[int, Dict[str, Dict[Tuple[str, str, int],
                                              int]]] = {}
        self.parse_errors = 0
        # Requests awaiting their response, by originator endpoint
        # (ip, port, proto), oldest first: flow -> VLAN.
        self._pending: Dict[tuple, Dict[FiveTuple, int]] = {}
        if trace is not None:
            for record in trace.records:
                self.process(record)

    @classmethod
    def streaming(cls, trace: PacketTrace) -> "ShimAnalyzer":
        analyzer = cls()
        trace.subscribe(analyzer.process)
        return analyzer

    def process(self, record: TraceRecord) -> None:
        payload = _shim_payload(record)
        if payload is None:
            return
        proto = record.ip.proto  # type: ignore[union-attr]
        offset = 0
        while offset + 8 <= len(payload):
            length = peek_length(payload[offset:offset + 8])
            if length is None or offset + length > len(payload):
                break
            blob = payload[offset:offset + length]
            msg_type = blob[6]
            try:
                if msg_type == TYPE_REQUEST:
                    shim = RequestShim.from_bytes(blob, proto=proto)
                    flow = shim.flow
                    self._pending.setdefault(
                        (flow.orig_ip, flow.orig_port, flow.proto),
                        {})[flow] = shim.vlan_id
                elif msg_type == TYPE_RESPONSE:
                    self._match(ResponseShim.from_bytes(blob, proto=proto))
                else:
                    self.parse_errors += 1
            except ShimError:
                self.parse_errors += 1
            offset += length
            # Only the leading shim of a segment is a shim; any
            # trailing bytes are flow content (REWRITE payload).
            if offset < len(payload):
                next_magic = payload[offset:offset + 4]
                if int.from_bytes(next_magic, "big") != SHIM_MAGIC:
                    break

    def _match(self, response: ResponseShim) -> None:
        # The response's four-tuple is the *resulting* endpoint pair;
        # for REDIRECT/REFLECT it differs from the request's, so match
        # on the originator side, its oldest pending request first.
        result = response.flow
        endpoint = (result.orig_ip, result.orig_port, result.proto)
        requests = self._pending.get(endpoint)
        if requests is None:
            self.parse_errors += 1
            return
        vlan = requests.pop(next(iter(requests)))
        if not requests:
            del self._pending[endpoint]
        if response.policy:
            self.policies[vlan] = response.policy
        groups = self.groups.setdefault(vlan, {})
        bucket = groups.setdefault(response.verdict.label, {})
        key = (response.annotation, str(result.resp_ip), result.resp_port)
        bucket[key] = bucket.get(key, 0) + 1

    # ------------------------------------------------------------------
    def verdict_counts(self, vlan: Optional[int] = None) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for inmate, groups in self.groups.items():
            if vlan is not None and inmate != vlan:
                continue
            for verdict, bucket in groups.items():
                counts[verdict] = counts.get(verdict, 0) + sum(
                    bucket.values())
        return counts


class SmtpActivityAnalyzer:
    """Counts SMTP sessions and completed DATA transfers per VLAN.

    Sessions are SYNs to port 25 on the inmate side of the trace;
    DATA transfers are ``250``-after-DATA replies, recognized by the
    sink/MX convention of replying ``250 OK: queued``.
    """

    DATA_ACCEPTED = b"250 OK: queued"

    def __init__(self, trace: Optional[PacketTrace] = None) -> None:
        self.sessions: Dict[int, int] = {}
        self.data_transfers: Dict[int, int] = {}
        if trace is not None:
            for record in trace.records:
                self.process(record)

    @classmethod
    def streaming(cls, trace: PacketTrace) -> "SmtpActivityAnalyzer":
        analyzer = cls()
        trace.subscribe(analyzer.process)
        return analyzer

    def process(self, record: TraceRecord) -> None:
        if record.point != "inmate":
            return
        ip = record.ip
        if ip is None or ip.proto != PROTO_TCP:
            return
        segment = ip.tcp
        vlan = record.frame.vlan
        if vlan is None:
            return
        if segment.dport == 25 and segment.syn and not segment.has_ack:
            self.sessions[vlan] = self.sessions.get(vlan, 0) + 1
        if segment.sport == 25 and self.DATA_ACCEPTED in segment.payload:
            count = segment.payload.count(self.DATA_ACCEPTED)
            self.data_transfers[vlan] = (
                self.data_transfers.get(vlan, 0) + count
            )

    def totals(self) -> Tuple[int, int]:
        return (sum(self.sessions.values()),
                sum(self.data_transfers.values()))
