"""Coupling: a flow and its containment server (§5.1, §6.1, Figure 5).

Every new flow is physically coupled to a containment server: the
originator's packets go to the server's fixed address on a per-flow mux
port, the request shim is injected into the stream the moment the
handshake completes, and the response shim is stripped from what comes
back.  The coupled legs are rows of the flow table from the flow's
first packet (``c2cs_row`` / ``cs_row``: the only place their
translation is written down); the controller handlers here do the
bookkeeping — buffer for the handoff replay, inject and strip the
shims, learn ISNs, parse the verdict — and run each packet through its
row.  Also here: the server's onward (nonce) leg, its leaving the path
(``uncouple``), and the router-built segments that go with a verdict.
Plain functions over ``(router, record)``.
"""

from __future__ import annotations

from repro.core.shim import (
    RequestShim,
    ResponseShim,
    ShimError,
    peek_length,
)
from repro.core.verdicts import ContainmentDecision
from repro.gateway import admission, handoff, housekeeping
from repro.gateway.flows import LIVE_PHASES, FlowPhase, FlowRecord
from repro.gateway.flowtable import (
    ACT_TCP_C2CS,
    ACT_TCP_CS2C,
    ACT_TCP_CS2W,
    ACT_TCP_W2CS,
    ACT_UDP_C2CS,
    CLOSE_RETIRE,
    EMIT_CS,
    EMIT_UPSTREAM,
    LEG_CS,
    LEG_NONCE,
    LEG_ORIGINATOR,
    LEG_RETURN,
    Rewrite,
    Row,
    apply,
)
from repro.net.addresses import IPv4Address
from repro.net.packet import (
    ACK,
    FIN,
    IPv4Packet,
    PROTO_TCP,
    PROTO_UDP,
    PSH,
    RST,
    SYN,
    TCPSegment,
    UDPDatagram,
)
from repro.net.tcp import seq_add


# ----------------------------------------------------------------------
# The coupled legs as rows (the SHIM phase; REWRITE for life)
# ----------------------------------------------------------------------
def couple(router, record: FlowRecord) -> None:
    """Bind the coupled legs — originator to the flow's containment
    server, every server of the cluster back on the flow's mux port
    — from the record's present state: at creation, when the
    request shim goes in, at a failover re-home, at a REWRITE verdict
    (the response shim has come out, a shaper may have gone in)."""
    router.flowtable.bind(c2cs_row(router, record))
    for cs_ip in router._cs_list:
        router.flowtable.bind(cs_row(router, record, cs_ip))


def uncouple(router, record: FlowRecord) -> None:
    """Take the servers off the flow's path: their keys leave."""
    router.flowtable.unbind(record, [cs_key(router, record, cs_ip)
                                     for cs_ip in router._cs_list])


def cs_key(router, record: FlowRecord, cs_ip: IPv4Address) -> tuple:
    """Server ``cs_ip``'s flow key on the flow's mux port."""
    orig = record.orig
    port = router.cs_udp_port if orig.proto == PROTO_UDP else \
        router.cs_tcp_port
    return (cs_ip.value, port, orig.orig_ip.value, record.mux_port, orig.proto)


def c2cs_row(router, record: FlowRecord) -> Rewrite:
    """Originator -> the flow's containment server: the mux port,
    and ``SEQ += |REQ SHIM|`` once the request shim has gone in
    (for a datagram the shim is a prefix of every payload).  Emits
    on EMIT_CS (the shim-link fault seam is re-read per packet) and
    is never shaped."""
    orig = record.orig
    cs_ip = record.cs_ip
    if orig.proto == PROTO_UDP:
        kind, port = ACT_UDP_C2CS, router.cs_udp_port
        translation = {"payload_prefix": RequestShim(
            orig, record.vlan, record.nonce_port).to_bytes()}
    else:
        kind, port = ACT_TCP_C2CS, router.cs_tcp_port
        translation = {"seq_delta": record.c2s_inj,
                       "ack_delta": record.s2c_rem}
    return Rewrite(record.orig_key, record, LEG_ORIGINATOR, kind,
                   record.mux_port, port, orig.orig_ip, cs_ip,
                   router._cs_links[cs_ip.value], emit_code=EMIT_CS,
                   emit_arg=cs_ip, **translation)


def cs_row(router, record: FlowRecord, cs_ip: IPv4Address) -> Row:
    """Containment server ``cs_ip`` -> originator, on the flow's mux
    port: ``SEQ -= |RSP SHIM|`` once the response shim has come
    out, the request shim out of the ack.  A datagram from the
    server is parsed, never relayed: its row names the leg only."""
    orig = record.orig
    key = cs_key(router, record, cs_ip)
    if orig.proto == PROTO_UDP:
        return Row(key, record, LEG_CS)
    return handoff.compile_row(
        router, record, key, LEG_CS, ACT_TCP_CS2C,
        orig.resp_port, orig.orig_port, orig.resp_ip, orig.orig_ip,
        handoff.client_plan(record), shaped=True,
        seq_delta=(-record.s2c_rem) & 0xFFFFFFFF,
        ack_delta=(-record.c2s_inj) & 0xFFFFFFFF)


def offer(router, record: FlowRecord, transport) -> None:
    """Put a flow's opening packet — at creation, and again when
    failover retries or replays it — before its containment server,
    through the coupled row.  The flow's own accounting and idle
    clock never saw these (every tracked digest pins that), so the
    row's bookkeeping is put back."""
    kept = record.c2s_packets, record.c2s_bytes, record.last_activity
    orig = record.orig
    apply(router, router._table[record.orig_key], IPv4Packet.wrap(
        orig.orig_ip, orig.resp_ip, transport, orig.proto),
          packet_in=False)
    record.c2s_packets, record.c2s_bytes, record.last_activity = kept


# ----------------------------------------------------------------------
# Originator leg: relay toward the server, inject the request shim
# ----------------------------------------------------------------------
def from_originator(router, row: Row, packet: IPv4Packet) -> None:
    """A packet on the originator's tuple: a new incarnation of it,
    a SYN retransmit of a decided flow, the client's RST, or anything
    before the verdict."""
    record = row.record
    record.last_activity = router.sim.now
    transport = packet.payload
    tcp = packet.proto == PROTO_TCP
    flags = transport.flags if tcp else 0
    # A pure SYN with a new ISN is a new incarnation of the flow
    # (port reuse after close, or a fresh host generation after a
    # revert): evict the stale record and start containment over.
    if (flags & (SYN | ACK) == SYN
            and transport.seq != record.client_isn):
        housekeeping.evict(router, record)
        admission.new_flow(router, packet, vlan=record.vlan,
                       inmate_is_originator=record.inmate_is_originator)
        return
    phase = record.phase
    if phase not in LIVE_PHASES:
        return  # dropped or aborted: swallowed
    if flags & RST and row.spec.close != CLOSE_RETIRE:
        # A handed-off flow's reset is relayed below, ending the
        # destination's side too, and finishes the flow (``apply``).
        record.c2s_packets += 1
        record.c2s_bytes += len(transport.payload)
        housekeeping.abort_flow(router, record, notify_client=False)
    elif phase is FlowPhase.ENFORCED:
        # Decided: forwarded by the flow's own rule and nothing
        # else, packet-in disabled.
        apply(router, row, packet, packet_in=False)
    elif tcp and phase is FlowPhase.SHIM:
        # Coupled: buffer for the handoff replay, relay through the
        # row, and put the request shim in the moment the inmate
        # completes the handshake.
        record.client_buffer.extend(transport.payload)
        apply(router, row, packet, packet_in=False)
        if (not record.shim_injected and record.cs_isn is not None
                and flags & (SYN | ACK) == ACK):
            inject_request_shim(router, record)
    else:
        # Held for the verdict (a datagram after the first is not
        # shown to the server) or for the destination's handshake.
        record.c2s_packets += 1
        record.c2s_bytes += len(transport.payload)
        if not tcp:
            record.hold_udp(transport.copy())
            return
        record.client_buffer.extend(transport.payload)
        if flags & FIN:
            record.client_fin = True


def inject_request_shim(router, record: FlowRecord) -> None:
    payload = RequestShim(record.orig, record.vlan,
                          record.nonce_port).to_bytes()
    # SEQ += |REQ SHIM| for everything the originator sends after.
    record.c2s_inj = len(payload)
    record.shim_injected = True
    router.counters["shims_injected"] += 1
    to_cs(router, record, seq_add(record.client_isn, 1),
          seq_add(record.cs_isn, 1), ACK | PSH, payload)
    couple(router, record)


# ----------------------------------------------------------------------
# Containment-server leg: learn its ISN, strip the response shim
# ----------------------------------------------------------------------
def from_cs(router, row: Row, packet: IPv4Packet) -> None:
    """A containment server on the mux port of a flow still coupled
    to it.  This leg never refreshes last_activity; what the
    controller does not consume — an RST, the SYN-ACK of a replayed
    handshake, the response shim, a close without one — is relayed
    through the row."""
    record = row.record
    if packet.proto != PROTO_TCP:
        handle_cs_udp(router, record, packet)
        return
    segment = packet.payload
    flags = segment.flags
    if flags & RST:
        # The containment server aborted (or acknowledged our own
        # teardown); surface as reset to the client.
        record.s2c_packets += 1
        housekeeping.abort_flow(router, record, notify_client=True)
        return
    if flags & (SYN | ACK) == SYN | ACK and record.cs_isn is None:
        record.cs_isn = segment.seq
        if record.cs_handshake_replay:
            # Failover re-home of a flow whose client already
            # handshook against the old server: finish the fresh
            # leg ourselves, never showing the client a second
            # SYN-ACK — unless the flow was resolved meanwhile and
            # there is nothing left to couple.
            record.s2c_packets += 1
            record.cs_handshake_replay = False
            if record.phase is FlowPhase.SHIM:
                replay_cs_handshake(router, record)
            return
    elif record.phase is FlowPhase.SHIM and (segment.payload
                                             or flags & FIN):
        record.s2c_packets += 1
        if segment.payload:
            record.shim_buffer.extend(segment.payload)
            try_parse_response_shim(router, record)
        else:
            # Server closed before issuing a verdict: treat as drop.
            handoff.apply_decision(router, record, ContainmentDecision.drop(
                policy="cs-closed", annotation="no verdict"))
        return
    apply(router, row, packet, packet_in=False)


def replay_cs_handshake(router, record: FlowRecord) -> None:
    """Complete a re-homed containment-server leg on the client's
    behalf: ACK the fresh SYN-ACK, re-inject the request shim, and
    replay any payload the client already sent (the handoff replay
    idiom of handoff.complete_handoff, pointed at the new server)."""
    orig = record.orig

    def as_client(flags: int, payload: bytes = b"") -> TCPSegment:
        return TCPSegment(
            sport=orig.orig_port, dport=orig.resp_port,
            seq=seq_add(record.client_isn, 1),
            ack=seq_add(record.cs_isn, 1), flags=flags, payload=payload)

    offer(router, record, as_client(ACK))
    inject_request_shim(router, record)
    if record.client_buffer:
        offer(router, record, as_client(ACK | PSH,
                                        bytes(record.client_buffer)))


def try_parse_response_shim(router, record: FlowRecord) -> None:
    length = peek_length(bytes(record.shim_buffer[:8])) \
        if len(record.shim_buffer) >= 8 else None
    if length is None or len(record.shim_buffer) < length:
        return
    blob = bytes(record.shim_buffer[:length])
    leftover = bytes(record.shim_buffer[length:])
    record.shim_buffer.clear()
    try:
        shim = ResponseShim.from_bytes(blob, proto=record.orig.proto)
    except ShimError:
        handoff.apply_decision(router, record, ContainmentDecision.drop(
            policy="shim-error", annotation="malformed response shim"))
        return
    record.s2c_rem = length
    router.counters["shims_stripped"] += 1
    if router.resilience is not None:
        router.resilience.note_verdict(record.cs_ip)
    decision = shim.to_decision(record.orig)
    handoff.apply_decision(router, record, decision, leftover)


def handle_cs_udp(router, record: FlowRecord, packet: IPv4Packet) -> None:
    payload = packet.udp.payload
    length = peek_length(payload)
    if length is None or len(payload) < length:
        return
    try:
        shim = ResponseShim.from_bytes(payload[:length], proto=PROTO_UDP)
    except ShimError:
        return
    leftover = payload[length:]
    router.counters["shims_stripped"] += 1
    if router.resilience is not None:
        router.resilience.note_verdict(record.cs_ip)
    if record.decision is None:
        handoff.apply_decision(router, record, shim.to_decision(record.orig),
                               leftover)
    elif leftover and record.decision.verdict.is_content_control:
        deliver_udp_to_client(router, record, leftover)


def deliver_cs_content(router, record: FlowRecord, payload: bytes) -> None:
    """Deliver REWRITE content that shared a segment with the
    response shim."""
    segment = TCPSegment(
        sport=record.orig.resp_port, dport=record.orig.orig_port,
        seq=seq_add(record.cs_isn, 1),
        ack=client_snd_nxt(record),
        flags=ACK | PSH, payload=payload,
    )
    record.s2c_bytes += len(payload)
    to_client(router, record, segment)


def deliver_udp_to_client(router, record: FlowRecord, payload: bytes) -> None:
    record.s2c_bytes += len(payload)
    to_client(router, record, UDPDatagram(
        record.orig.resp_port, record.orig.orig_port, payload))


# ----------------------------------------------------------------------
# The server's onward (nonce) leg
# ----------------------------------------------------------------------
def open_nonce_leg(router, record: FlowRecord, packet: IPv4Packet) -> None:
    """The containment server opened an onward connection from the
    flow's nonce port: bind both directions, NATed so the real
    target sees the inmate's global address and original port, and
    run the packet through."""
    segment = packet.payload
    orig = record.orig
    if record.inmate_is_originator and record.nat_global is None:
        record.nat_global = router.nat.global_for(record.vlan)
    local = record.nat_global or orig.orig_ip
    target, cs_ip = packet.dst, packet.src
    out = handoff.compile_row(
        router, record, (cs_ip.value, segment.sport, target.value,
                         segment.dport, PROTO_TCP), LEG_NONCE, ACT_TCP_CS2W,
        orig.orig_port, segment.dport, local, target,
        (EMIT_UPSTREAM, None))
    back = handoff.compile_row(
        router, record, (target.value, segment.dport, local.value,
                         orig.orig_port, PROTO_TCP), LEG_RETURN, ACT_TCP_W2CS,
        segment.dport, segment.sport, target, record.cs_ip,
        (EMIT_CS, record.cs_ip))
    router.flowtable.bind(out)
    if back.key != record.resp_key:
        router.flowtable.bind(back)
    apply(router, out, packet, packet_in=False)


# ----------------------------------------------------------------------
# Router-built segments toward the server and the client
# ----------------------------------------------------------------------
def to_cs(router, record: FlowRecord, seq: int, ack: int, flags: int,
          payload: bytes = b"") -> None:
    """Emit a router-built segment on the flow's containment-server
    leg — already in the server's port and sequence space — over its
    shim link, which consults the fault view when one is installed."""
    segment = TCPSegment(record.mux_port, router.cs_tcp_port, seq, ack,
                         flags, payload=payload)
    router._cs_links[record.cs_ip.value].send(
        IPv4Packet(record.orig.orig_ip, record.cs_ip, segment))


def teardown_cs_leg(router, record: FlowRecord) -> None:
    """Abort the containment-server leg after an endpoint verdict
    (the server is out of the path from here on)."""
    if record.orig.proto != PROTO_TCP or record.cs_isn is None:
        return
    to_cs(router, record,
          seq_add(record.client_isn, 1 + record.c2s_inj
                  + len(record.client_buffer) + record.c2s_bytes),
          seq_add(record.cs_isn, 1 + record.s2c_rem), RST | ACK)


def to_client(router, record: FlowRecord, transport) -> None:
    """Emit a router-built segment or datagram toward the flow's
    originator, as from the destination it addressed."""
    router._send(handoff.client_plan(record), IPv4Packet(
        record.orig.resp_ip, record.orig.orig_ip, transport),
        record.shaper)


def client_snd_nxt(record: FlowRecord) -> int:
    return seq_add(record.client_isn, 1 + record.c2s_bytes
                   + (1 if record.client_fin else 0))


def synthesize_client_rst(router, record: FlowRecord) -> None:
    if record.orig.proto != PROTO_TCP:
        return
    seq = seq_add(record.cs_isn, 1) if record.cs_isn is not None else 0
    to_client(router, record, TCPSegment(
        sport=record.orig.resp_port, dport=record.orig.orig_port,
        seq=seq, ack=client_snd_nxt(record), flags=RST | ACK))
