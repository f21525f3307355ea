"""Trace analyzers: the shim protocol and SMTP activity.

"We developed an analyzer for the shimming protocol to keep track of
all containment activity on the inmate network, and track specific
additional classes of traffic as needed (for example, we leverage
Bro's SMTP analyzer to track attempted and succeeding message delivery
for our spambots)."

Both analyzers work from captured packet traces — the same evidence a
real Bro instance would see — not from internal gateway state, so the
reports double as an independent check that the gateway enforces
verdicts as configured.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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


class ContainmentEvent:
    """One contained flow: request shim matched to its response."""

    __slots__ = ("timestamp", "vlan", "flow", "verdict", "policy",
                 "annotation", "resulting_flow")

    def __init__(self, timestamp: float, request: RequestShim,
                 response: ResponseShim) -> None:
        self.timestamp = timestamp
        self.vlan = request.vlan_id
        self.flow = request.flow
        self.verdict = response.verdict.label
        self.policy = response.policy
        self.annotation = response.annotation
        self.resulting_flow = response.flow

    def __repr__(self) -> str:
        return (
            f"<ContainmentEvent t={self.timestamp:.1f} vlan={self.vlan} "
            f"{self.verdict} policy={self.policy!r} {self.flow}>"
        )


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
    """Reconstructs containment events from shim-protocol traffic.

    Post-hoc (pass a trace) or streaming (:meth:`streaming` subscribes
    the analyzer so day-scale runs never retain packets).
    """

    def __init__(self, trace: Optional[PacketTrace] = None) -> None:
        self.events: List[ContainmentEvent] = []
        self.parse_errors = 0
        self._pending: Dict[FiveTuple, Tuple[float, RequestShim]] = {}
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
                    self._pending[shim.flow] = (record.timestamp, shim)
                elif msg_type == TYPE_RESPONSE:
                    response = ResponseShim.from_bytes(blob, proto=proto)
                    self._match(record.timestamp, response, self._pending)
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

    def _match(self, timestamp: float, response: ResponseShim,
               pending: Dict[FiveTuple, Tuple[float, RequestShim]]) -> None:
        # The response's four-tuple is the *resulting* endpoint pair;
        # for REDIRECT/REFLECT it differs from the request's, so match
        # on the originator side.
        for flow, (req_time, request) in list(pending.items()):
            if (flow.orig_ip == response.flow.orig_ip
                    and flow.orig_port == response.flow.orig_port
                    and flow.proto == response.flow.proto):
                del pending[flow]
                self.events.append(
                    ContainmentEvent(req_time, request, response))
                return
        self.parse_errors += 1

    # ------------------------------------------------------------------
    def verdict_counts(self, vlan: Optional[int] = None) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            if vlan is not None and event.vlan != vlan:
                continue
            counts[event.verdict] = counts.get(event.verdict, 0) + 1
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
