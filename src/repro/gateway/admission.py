"""Admission: which packets become flows (§5.1, §5.3).

The gateway hands out inmate addresses itself (DHCP), lets the
restricted broadcast domain's services through uncontained, and couples
everything else to a containment server — after the safety filter has
had its say and a per-flow port slot is free.  Plain functions over the
router (:class:`~repro.gateway.router.SubfarmRouter`), called from its
entry points and from the controller's originator leg (a new
incarnation of a known tuple is admitted afresh).
"""

from __future__ import annotations

from typing import Optional

from repro.gateway import coupling, housekeeping
from repro.gateway.flows import FlowLogEntry, FlowPhase, FlowRecord
from repro.gateway.flowtable import LEG_RETURN, Row
from repro.gateway.nat import InboundMode
from repro.net.addresses import IPv4Address
from repro.net.flow import FiveTuple
from repro.net.packet import (
    ACK,
    IPv4Packet,
    PROTO_TCP,
    PROTO_UDP,
    SYN,
    UDPDatagram,
)
from repro.obs.journal import ROOT as JOURNAL_ROOT
from repro.services.dhcp import DhcpMessage, DHCP_SERVER_PORT, DHCP_CLIENT_PORT


def _readdressed(packet: IPv4Packet, src: Optional[IPv4Address] = None,
                 dst: Optional[IPv4Address] = None) -> IPv4Packet:
    """NAT rewrite of a received packet: a new header over the same
    transport payload.  The packet itself belongs to whoever sent it
    (docs/PERFORMANCE.md, "Packet ownership")."""
    return IPv4Packet(src or packet.src, dst or packet.dst, packet.payload,
                      packet.proto, packet.ttl, packet.ident)


# ----------------------------------------------------------------------
# DHCP (the gateway assigns internal addresses itself — §5.3)
# ----------------------------------------------------------------------
def handle_dhcp(router, vlan: int, frame, packet: IPv4Packet) -> None:
    try:
        message = DhcpMessage.from_bytes(packet.udp.payload)
    except ValueError:
        return
    internal = router.nat.bind(vlan)
    if message.kind == DhcpMessage.DISCOVER:
        reply = DhcpMessage.offer(
            message.xid, message.chaddr, internal,
            router=router.gateway_ip, dns=router.dns_ip or router.gateway_ip,
        )
    elif message.kind == DhcpMessage.REQUEST:
        reply = DhcpMessage.ack(
            message.xid, message.chaddr, internal,
            router=router.gateway_ip, dns=router.dns_ip or router.gateway_ip,
        )
        router.counters["dhcp_leases"] += 1
    else:
        return
    out = IPv4Packet(
        router.gateway_ip, internal,
        UDPDatagram(DHCP_SERVER_PORT, DHCP_CLIENT_PORT, reply.to_bytes()),
    )
    router.egress.vlan_egress(vlan).send(out)


# ----------------------------------------------------------------------
# Flow creation
# ----------------------------------------------------------------------
def new_flow(router, packet: IPv4Packet, vlan: int,
             inmate_is_originator: bool) -> None:
    proto = packet.proto
    if proto != PROTO_TCP and proto != PROTO_UDP:
        return
    if (proto == PROTO_TCP
            and packet.payload.flags & (SYN | ACK) != SYN):
        return  # mid-flow packet for an unknown flow: drop
    key = FiveTuple.from_packet(packet)

    # The safety filter guards against *outbound* harm; inbound
    # traffic (e.g. worm scans the honeyfarm wants to attract) is
    # not rate-limited here.
    if inmate_is_originator and not router.safety.admit(
        router.sim.now, vlan, key.resp_ip
    ):
        refuse(router, key, vlan, inmate_is_originator)
        return
    slot = allocate_slot(router)
    if slot is None:
        # Every slot is held by a record active within
        # flow_idle_timeout: refuse, never unwind the event loop.
        refuse(router, key, vlan, inmate_is_originator,
               reason="mux-exhausted")
        return

    mux = router.MUX_PORT_BASE + slot
    record = FlowRecord(key, vlan, inmate_is_originator, router.sim.now,
                        mux, router.NONCE_PORT_BASE + slot)
    record.cs_ip = router._select_cs(vlan)
    housekeeping.arm(router)
    router.counters["flows_created"] += 1
    router._by_mux[mux] = record
    router._by_nonce[record.nonce_port] = record
    # The originator's tuple reversed, then the coupled legs.
    router.flowtable.bind(Row(record.resp_key, record, LEG_RETURN))
    coupling.couple(router, record)

    if router.journal.enabled:
        # The (VLAN, five-tuple) alias lets the containment server —
        # which only ever sees the flow through serialized shim bytes
        # — journal onto the same causal chain.
        flow_id = (f"{router.name}/vlan{vlan}/mux{mux}"
                   f"/t{router.sim.now:.6f}")
        router._trace_ids[mux] = flow_id
        router.journal.bind_flow((vlan, record.orig_key), flow_id)
        router.journal.record(
            "flow.created", flow=flow_id, vlan=vlan,
            parent=JOURNAL_ROOT,
            proto="tcp" if proto == PROTO_TCP else "udp",
            destination=str(key.resp_ip))

    transport = packet.payload
    if proto == PROTO_TCP:
        record.client_isn = transport.seq
    else:
        record.hold_udp(transport.copy())
    resilience = router.resilience
    if resilience is not None and resilience.handle_new_flow(record):
        return  # degraded: resolved by the pending policy
    coupling.offer(router, record, transport)
    if resilience is not None:
        resilience.arm(record)


def refuse(router, key: FiveTuple, vlan: int, inmate_is_originator: bool,
           **why) -> None:
    """Log a flow that never gets rows: REFUSED, counted, journalled
    (with the reason when it is not the safety filter's)."""
    record = FlowRecord(key, vlan, inmate_is_originator,
                        router.sim.now, 0, 0)
    record.phase = FlowPhase.REFUSED
    router.flow_log.append(FlowLogEntry(router.sim.now, record))
    router.counters["flows_refused"] += 1
    if router.journal.enabled:
        router.journal.record(
            "flow.refused",
            flow=(f"{router.name}/vlan{vlan}/refused"
                  f"/t{router.sim.now:.6f}"),
            vlan=vlan, parent=JOURNAL_ROOT,
            destination=str(key.resp_ip), **why)


def allocate_slot(router) -> Optional[int]:
    """A free per-flow slot — mux port ``MUX_PORT_BASE + slot`` toward
    the containment server, nonce port ``NONCE_PORT_BASE + slot`` for
    its onward leg — or None when records hold all of them."""
    for _ in range(router.PORT_SLOTS):
        slot = router._next_slot
        router._next_slot = (slot + 1) % router.PORT_SLOTS
        if router.MUX_PORT_BASE + slot not in router._by_mux:
            return slot
    return None


# ----------------------------------------------------------------------
# What belongs to no flow: unsolicited inbound, the services' own NAT
# ----------------------------------------------------------------------
def upstream_unmatched(router, packet: IPv4Packet) -> None:
    """An upstream packet that belongs to no known flow."""
    # Return traffic for service-originated outbound?
    internal = router._service_nat_rev.get(packet.dst.value)
    if internal is not None:
        router.egress.service_egress(internal).send(
            _readdressed(packet, dst=internal))
        return
    # Unsolicited inbound toward an inmate's global address.
    vlan = router.nat.vlan_for_global(packet.dst)
    if vlan is None:
        return
    if router.nat.inbound_mode is InboundMode.DROP:
        return  # home-user NAT: nothing gets in
    if (packet.proto == PROTO_TCP
            and packet.payload.flags & (SYN | ACK) != SYN):
        return  # stray non-SYN (or SYN-ACK) for an unknown flow
    new_flow(router, packet, vlan=vlan, inmate_is_originator=False)


def service_outbound(router, packet: IPv4Packet) -> None:
    if router.control_pool is None:
        return
    global_ip = router._service_nat.get(packet.src.value)
    if global_ip is None:
        global_ip = router.control_pool.allocate()
        router._service_nat[packet.src.value] = global_ip
        router._service_nat_rev[global_ip.value] = packet.src
        router._demux[global_ip.value] = router
    router.egress.upstream_egress.send(
        _readdressed(packet, src=global_ip))
