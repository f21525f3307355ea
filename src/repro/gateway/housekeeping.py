"""Housekeeping: giving a flow's rows and ports back (§5.1).

A TCP flow under an endpoint verdict leaves the table the moment it
ends on the wire (``retire``: both FINs acknowledged, or an RST; a
DROP at its verdict).  Any flow leaves it when its tuple starts over
(a new incarnation), its inmate is reverted, hostile bytes arrive on
it, or it has been idle past ``flow_idle_timeout`` — whatever its
phase (``evict``).  A rule lives exactly as long as its flow's keys:
only an abort demotes it sooner.  All go through ``release``, after
which the router holds nothing of the flow.  The periodic tick arms
itself while records hold rows and goes quiet with them; each tick is
one ``sweep_flowtable``.  (The router's ``sweep_flowtable`` /
``expire_idle_flows`` / ``forget_inmate`` are the entry points.)
Plain functions over ``(router, record)``.
"""

from __future__ import annotations

from repro.gateway import coupling, handoff
from repro.gateway.flows import LIVE_PHASES, FlowPhase, FlowRecord
from repro.net.packet import IPv4Packet, PROTO_TCP, PROTO_UDP


def release(router, record: FlowRecord) -> int:
    """Take the flow's keys out of the table — its installed rules
    with them, not demoted first — and give its port slot back: the
    router holds nothing of it after this.  Returns how many installed
    rules went."""
    rules = router.flowtable.unbind(record)
    router._by_mux.pop(record.mux_port, None)
    router._by_nonce.pop(record.nonce_port, None)
    record.flow_id = None
    record.coupled = None
    return rules


def evict(router, record: FlowRecord) -> None:
    """Give a record's rows and ports back so its tuples can be
    reused, journalled; its installed rules count as evicted."""
    journal = router.journal
    flow_id = record.flow_id
    if flow_id is not None:
        journal.record("flow.evicted", flow=flow_id, vlan=record.vlan,
                       phase=record.phase.value)
    rules = release(router, record)
    router.flowtable.evictions += rules
    if rules and journal.enabled:
        journal.record("fastpath.evict", flow=flow_id, vlan=record.vlan,
                       handlers=rules)
    if record.phase not in (FlowPhase.DROPPED, FlowPhase.REFUSED):
        record.phase = FlowPhase.CLOSED


def retire(router, record: FlowRecord) -> None:
    """A TCP flow under an endpoint verdict has finished (the packet
    that finished it is out): release it at once.  No event, no
    journal line, no router counter — only ``flowtable.retired``."""
    router.flowtable.retired += release(router, record)
    record.phase = FlowPhase.CLOSED


def abort_flow(router, record: FlowRecord, notify_client: bool) -> None:
    if record.phase in (FlowPhase.CLOSED, FlowPhase.DROPPED):
        return
    if record.phase in LIVE_PHASES:
        coupling.teardown_cs_leg(router, record)
    if notify_client:
        coupling.synthesize_client_rst(router, record)
    handoff.uninstall(router, record)
    record.phase = FlowPhase.CLOSED


def isolate_offender(router, packet: IPv4Packet) -> None:
    """Abort the flow the offending bytes arrived on and drop its
    demux state, so nothing more from it reaches a parser."""
    if packet.proto not in (PROTO_TCP, PROTO_UDP):
        return
    transport = packet.payload
    row = router._table.get((packet.src.value, transport.sport,
                             packet.dst.value, transport.dport,
                             packet.proto))
    if row is None:
        return
    record = row.record
    if router.journal.enabled:
        router.journal.record(
            "barrier.isolated",
            flow=record.flow_id,
            vlan=record.vlan)
    abort_flow(router, record, notify_client=False)
    evict(router, record)
    router.barrier.note_isolation()


def arm(router) -> None:
    if router._housekeeping_armed:
        return
    router._housekeeping_armed = True
    router.sim.schedule(router.housekeeping_interval, housekeep, router,
                        label="flow-housekeeping")


def housekeep(router) -> None:
    router._housekeeping_armed = False
    router.sweep_flowtable()
    if router._by_mux:
        arm(router)
