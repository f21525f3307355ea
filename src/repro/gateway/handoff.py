"""Handoff: from verdict to installed rules (§5.4, §6.1, Figure 5).

``apply_decision`` records the verdict and fixes the flow's forwarding.
REWRITE keeps the flow coupled: the coupled rows become its rules.
Every other verdict takes the containment server out of the path; a TCP
DROP, reset both ways, ends there and is released.  Otherwise the
enforced destination is resolved into a *destination plan*, the
originator's SYN and buffered payload are replayed along it
(``begin_handoff`` / ``complete_handoff``), and the flow's legs are
compiled into rows and installed (``install``).  The ``compile_*``
steps are, with the coupled and nonce rows of
:mod:`~repro.gateway.coupling`, the only place the translations of
Figure 5 are written down.  Plain functions over ``(router, record)``.
"""

from __future__ import annotations

from repro.core.verdicts import ContainmentDecision, Verdict
from repro.gateway import coupling, housekeeping
from repro.gateway.egress import Shaped
from repro.gateway.flows import (
    LIVE_PHASES,
    FlowLogEntry,
    FlowPhase,
    FlowRecord,
    TokenBucket,
)
from repro.gateway.flowtable import (
    ACT_DROP_UDP,
    ACT_TCP_C2D,
    ACT_TCP_D2C,
    ACT_UDP_C2D,
    ACT_UDP_D2C,
    EMIT_SERVICE,
    EMIT_UPSTREAM,
    EMIT_VLAN,
    LEG_ORIGINATOR,
    LEG_RETURN,
    FlowEntry,
    Rewrite,
    Row,
    apply,
)
from repro.net.packet import (
    ACK,
    FIN,
    IPv4Packet,
    PROTO_TCP,
    PSH,
    RST,
    SYN,
    TCPSegment,
)
from repro.obs.telemetry import tally


# ----------------------------------------------------------------------
# The verdict
# ----------------------------------------------------------------------
def apply_decision(router, record: FlowRecord,
                   decision: ContainmentDecision,
                   leftover: bytes = b"") -> None:
    """Decide and install: record the verdict, fix the flow's
    forwarding, compile it into table entries.  Nothing a server sends
    after an endpoint verdict reaches the client."""
    record.decision = decision
    router.flow_log.append(FlowLogEntry(router.sim.now, record))
    record_verdict(router, record, decision)
    verdict = decision.verdict
    tcp = record.orig.proto == PROTO_TCP

    if verdict.is_content_control:
        # Content control: stay coupled to the containment server —
        # the coupled rows, as the record stands now, become its rules.
        record.phase = FlowPhase.ENFORCED
        record.udp_pending = None
        if tcp and decision.rate is not None:
            record.shaper = TokenBucket(decision.rate)
        if tcp:
            coupling.couple(router, record)
        if leftover and tcp:
            coupling.deliver_cs_content(router, record, leftover)
        elif leftover:
            coupling.deliver_udp_to_client(router, record, leftover)
        install(router, record)
        return

    endpoint = verdict.endpoint_op
    if verdict.is_limited and decision.rate is not None:
        record.shaper = TokenBucket(decision.rate)
    if tcp:
        coupling.uncouple(router, record)
        coupling.teardown_cs_leg(router, record)
    if endpoint == Verdict.DROP:
        record.phase = FlowPhase.DROPPED
        record.udp_pending = None
        coupling.synthesize_client_rst(router, record)
        if tcp:
            # Both resets are out: the flow has ended on the wire.
            housekeeping.release(router, record)
        else:
            install(router, record)
        return

    # FORWARD / LIMIT / REDIRECT / REFLECT: resolve destination,
    # hand the flow off, and take the containment server out of the
    # path.
    if endpoint in (Verdict.REDIRECT, Verdict.REFLECT):
        record.dst_ip = decision.target_ip
        record.dst_port = (
            decision.target_port
            if decision.target_port is not None
            else record.orig.resp_port
        )
        # Reflection preserves the spoofed original destination
        # address so the sink sees what the specimen dialled (TCP
        # only: a reflected datagram is readdressed to the sink).
        record.spoof_preserve = tcp and endpoint == Verdict.REFLECT
    else:
        if record.inmate_is_originator:
            record.dst_ip = record.orig.resp_ip
            record.dst_port = record.orig.resp_port
        else:
            # Inbound flow: the enforced destination is the inmate.
            record.dst_ip = router.nat.internal_for(record.vlan)
            record.dst_port = record.orig.resp_port

    classify_destination(router, record)
    # The destination's return alias, to the controller until the
    # handoff completes and the rules go in.
    router.flowtable.bind(Row(dst_alias(record), record, LEG_RETURN))
    if tcp:
        begin_handoff(router, record)
    else:
        record.phase = FlowPhase.ENFORCED
        while record.udp_pending:
            send_to_dst(router, record, record.udp_pending.popleft().rebind(
                record.orig.orig_port, record.dst_port))
        record.udp_pending = None
        install(router, record)


def record_verdict(router, record: FlowRecord,
                   decision: ContainmentDecision) -> None:
    """Bookkeeping at verdict time: count the verdict, observe the
    shim RTT histogram, journal ``verdict.applied``."""
    proto = "tcp" if record.orig.proto == PROTO_TCP else "udp"
    verdict = decision.verdict.label
    tally(router.verdict_counts, (record.vlan, verdict, proto),
          router._m_verdicts, subfarm=router.name, vlan=str(record.vlan),
          verdict=verdict, proto=proto)
    router._h_shim_rtt.observe(router.sim.now - record.created_at)
    if router.journal.enabled:
        router.journal.record(
            "verdict.applied",
            flow=record.flow_id,
            vlan=record.vlan, verdict=verdict, proto=proto,
            policy=decision.policy,
            annotation=decision.annotation or "")


def classify_destination(router, record: FlowRecord) -> None:
    """Work out whether the enforced destination is an inmate, a
    subfarm service, or an external host (and NAT accordingly), and
    fix the flow's destination plan on the record."""
    assert record.dst_ip is not None and record.dst_port is not None
    record.dst_is_inmate_vlan = None
    vlan = router.bridge.vlan_for_ip(record.dst_ip)
    if vlan is None:
        vlan = router.nat.vlan_for_internal(record.dst_ip)
    if vlan is not None:
        record.dst_is_inmate_vlan = vlan
    elif (record.dst_ip.value not in router.service_ips
          and record.inmate_is_originator):
        # External: the inmate-side endpoint needs its global address.
        record.nat_global = router.nat.global_for(record.vlan)
    record.dst_plan = dst_plan(router, record)


# ----------------------------------------------------------------------
# The destination plan
# ----------------------------------------------------------------------
def client_plan(record: FlowRecord):
    """(emit_code, emit_arg) toward the flow's originator."""
    if record.inmate_is_originator:
        return EMIT_VLAN, record.vlan
    # Inbound flow: the originator lives outside.
    return EMIT_UPSTREAM, None


def dst_plan(router, record: FlowRecord):
    """How packets reach the enforced destination, as ``(src_ip,
    dst_ip, emit_code, emit_arg)`` — a function of what the verdict
    and ``classify_destination`` fixed on the record, computed once,
    there, as ``record.dst_plan``.  Everything that addresses the
    destination leg (handoff replay, the compiled entries, the return
    alias) reads that one plan."""
    orig = record.orig
    if record.dst_is_inmate_vlan is not None:
        src_ip, emit = orig.orig_ip, (EMIT_VLAN, record.dst_is_inmate_vlan)
    elif record.dst_ip.value in router.service_ips:
        src_ip, emit = orig.orig_ip, (EMIT_SERVICE, record.dst_ip)
    else:
        src_ip = record.nat_global or orig.orig_ip
        emit = (EMIT_UPSTREAM, None)
    if record.spoof_preserve:
        # Physically delivered to the sink, but still addressed to
        # (and answered from) the original destination.
        return (orig.orig_ip, orig.resp_ip) + emit
    return (src_ip, record.dst_ip) + emit


def dst_alias(record: FlowRecord) -> tuple:
    """The flow key of return traffic from the enforced
    destination: its plan's addresses, reversed."""
    src_ip, dst_ip, _code, _arg = record.dst_plan
    return (dst_ip.value, record.dst_port, src_ip.value,
            record.orig.orig_port, record.orig.proto)


# ----------------------------------------------------------------------
# Replaying the originator toward the enforced destination
# ----------------------------------------------------------------------
def begin_handoff(router, record: FlowRecord) -> None:
    record.phase = FlowPhase.HANDOFF
    router.counters["handoffs"] += 1
    syn = TCPSegment(
        sport=record.orig.orig_port, dport=record.dst_port,
        seq=record.client_isn, flags=SYN,
    )
    send_to_dst(router, record, syn)


def from_return(router, row: Row, packet: IPv4Packet) -> None:
    """A packet on a tuple that answers the originator: the
    enforced destination (for inmate-to-inmate and REFLECT flows
    its alias *is* the reversed originator tuple), a nonce leg's
    far end, or a stray on the reversed tuple, which has no rule."""
    record = row.record
    record.last_activity = router.sim.now
    phase = record.phase
    if phase not in LIVE_PHASES:
        return
    if row.spec is not None:
        apply(router, row, packet, packet_in=False)
    elif packet.proto == PROTO_TCP and phase is not FlowPhase.ENFORCED:
        record.s2c_packets += 1
        segment = packet.payload
        answering = phase is FlowPhase.HANDOFF  # the replayed SYN
        if answering and segment.flags & RST:
            coupling.synthesize_client_rst(router, record)
            housekeeping.retire(router, record)
        elif answering and segment.flags & (SYN | ACK) == SYN | ACK:
            record.dst_isn = segment.seq
            complete_handoff(router, record)


def complete_handoff(router, record: FlowRecord) -> None:
    record.phase = FlowPhase.ENFORCED
    ack = (record.dst_isn + 1) & 0xFFFFFFFF

    def replay(seq: int, flags: int, payload: bytes = b"") -> None:
        send_to_dst(router, record, TCPSegment(
            sport=record.orig.orig_port, dport=record.dst_port,
            seq=seq, ack=ack, flags=flags, payload=payload))

    seq = (record.client_isn + 1) & 0xFFFFFFFF
    buffered = bytes(record.client_buffer)
    record.client_buffer.clear()
    if not buffered and not record.client_fin:
        # The handshake's ACK, bare only when no replayed data or FIN
        # is there to carry it.
        replay(seq, ACK)
    offset = 0
    while offset < len(buffered):
        chunk = buffered[offset:offset + 1460]
        offset += len(chunk)
        flags = ACK | PSH
        fin_here = record.client_fin and offset >= len(buffered)
        if fin_here:
            flags |= FIN
            record.client_fin_relayed = True
        replay(seq, flags, chunk)
        seq = (seq + len(chunk)) & 0xFFFFFFFF
    if record.client_fin and not record.client_fin_relayed:
        record.client_fin_relayed = True
        replay(seq, FIN | ACK)
    if record.client_fin_relayed:
        # The replayed FIN is the originator's side of the close
        # (flowtable.CLOSE_RETIRE): acknowledged by the ack past it.
        record.closing = [None, (seq + 1) & 0xFFFFFFFF]
    install(router, record)


def send_to_dst(router, record: FlowRecord, transport) -> None:
    """Emit a router-built segment or datagram (handoff replay,
    a datagram held for the verdict) along the destination plan."""
    src_ip, dst_ip, code, arg = record.dst_plan
    router.counters["packets_relayed"] += 1
    router._send((code, arg), IPv4Packet(src_ip, dst_ip, transport),
                 record.shaper)


# ----------------------------------------------------------------------
# Compiling a flow's legs into rows, installing them as rules
# ----------------------------------------------------------------------
def install(router, record: FlowRecord) -> None:
    if record.phase == FlowPhase.DROPPED:
        rows = compile_dropped(router, record)
    elif record.phase == FlowPhase.ENFORCED and record.decision is not None:
        if record.decision.verdict.is_content_control:
            rows = compile_rewrite(router, record)
        else:
            rows = compile_endpoint(router, record)
    else:
        return
    # Transactional commit: compilation finished (and may have
    # raised) before any table mutation, so a failed compile can
    # never leave orphan entries or a half-installed rule set.
    table = router.flowtable
    now = router.sim.now
    for entry in rows:
        entry.hits = 0
        entry.installed_at = now
        table.bind(entry)
    table.installs += len(rows)
    if router.journal.enabled:
        router.journal.record(
            "fastpath.install",
            flow=record.flow_id,
            vlan=record.vlan, phase=record.phase.value,
            handlers=len(rows))


def uninstall(router, record: FlowRecord) -> None:
    """Demote the flow's rules to the plain rows they were
    installed from (an aborted flow): its keys go back to the
    controller."""
    rules = router.flowtable.rules(record)
    for entry in rules:
        router.flowtable.bind(entry.demoted())
    if rules and router.journal.enabled:
        router.journal.record(
            "fastpath.evict", flow=record.flow_id,
            vlan=record.vlan, handlers=len(rules))


def compile_row(router, record: FlowRecord, key: tuple, leg: int, kind: int,
                out_sport: int, out_dport: int, src_ip, dst_ip, emit,
                shaped: bool = False, cls=Rewrite,
                **translation) -> Rewrite:
    """One leg's rewrite for ``record`` under flow key ``key``,
    holding its resolved egress; ``shaped`` puts the flow's LIMIT
    shaper, if it has one, in front of it.  ``cls`` is
    :class:`~repro.gateway.flowtable.FlowEntry` for a rule
    :func:`install` binds."""
    emit_code, emit_arg = emit
    egress = router._egress_for(emit_code, emit_arg)
    shaped = shaped and record.shaper is not None
    if shaped:
        egress = Shaped(router.sim, record.shaper, egress)
    return cls(key, record, leg, kind, out_sport, out_dport, src_ip,
               dst_ip, egress, emit_code=emit_code, emit_arg=emit_arg,
               shaped=shaped, **translation)


def compile_endpoint(router, record: FlowRecord):
    """Entries for handed-off flows (FORWARD/LIMIT/REDIRECT/
    REFLECT over TCP, plus all UDP endpoint verdicts)."""
    orig = record.orig
    src_ip, dst_ip, dst_code, dst_arg = record.dst_plan
    if orig.proto == PROTO_TCP:
        # ISN delta after handoff (Figure 5): the client handshook
        # against the containment server, so it acks in that ISN
        # space and the destination's sequence numbers must be
        # shifted into it.  The destination saw the client's own
        # sequence numbers (the replay carries no shim), so its acks
        # pass as they are.
        isn_delta = record.isn_delta
        c2d, d2c = ACT_TCP_C2D, ACT_TCP_D2C
        c2d_shift = {"ack_delta": (-isn_delta) & 0xFFFFFFFF}
        d2c_shift = {"seq_delta": isn_delta}
    else:
        c2d, d2c = ACT_UDP_C2D, ACT_UDP_D2C
        c2d_shift = d2c_shift = {}
    return [
        compile_row(router, record, record.orig_key, LEG_ORIGINATOR, c2d,
                    orig.orig_port, record.dst_port, src_ip, dst_ip,
                    (dst_code, dst_arg), shaped=True, cls=FlowEntry,
                    **c2d_shift),
        compile_row(router, record, dst_alias(record), LEG_RETURN,
                    d2c, orig.resp_port, orig.orig_port,
                    orig.resp_ip, orig.orig_ip,
                    client_plan(record), shaped=True, cls=FlowEntry,
                    **d2c_shift),
    ]


def compile_rewrite(router, record: FlowRecord):
    """The coupled rows as rules: a REWRITE flow stays coupled to
    its containment server for life.  (Return datagrams carry a
    response shim each and must be parsed, so a UDP flow's
    CS->client direction stays with the controller.)"""
    rows = [coupling.c2cs_row(router, record, FlowEntry)]
    if record.orig.proto == PROTO_TCP:
        rows.append(coupling.cs_row(router, record, record.cs_ip,
                                    FlowEntry))
    return rows


def compile_dropped(router, record: FlowRecord):
    """A dropped datagram flow's rule: touch and swallow (no egress).
    (A TCP DROP ends on the wire at its verdict and is released.)"""
    orig = record.orig
    return [FlowEntry(record.orig_key, record, LEG_ORIGINATOR, ACT_DROP_UDP,
                      orig.orig_port, orig.resp_port, orig.orig_ip,
                      orig.resp_ip)]
