"""Housekeeping: giving a flow's rows and ports back (§5.1).

A flow leaves the table when its tuple starts over (a new incarnation),
its inmate is reverted, hostile bytes arrive on it, or it has been idle
past ``flow_idle_timeout`` — whatever its phase; its rules are demoted
sooner, when an idle or hard timeout passes or the flow aborts.  The
periodic tick arms itself while records hold rows and goes quiet with
them.  (``SubfarmRouter.sweep_flowtable`` / ``expire_idle_flows`` /
``forget_inmate`` are the entry points.)  Plain functions over
``(router, record)``.
"""

from __future__ import annotations

from repro.gateway import coupling, handoff
from repro.gateway.flows import LIVE_PHASES, FlowPhase, FlowRecord
from repro.gateway.flowtable import FlowEntry
from repro.net.packet import IPv4Packet, PROTO_TCP, PROTO_UDP


def evict(router, record: FlowRecord) -> None:
    """Give a record's rows and ports back so its tuples can be
    reused."""
    if router.journal.enabled:
        flow_id = router._trace_ids.get(record.mux_port)
        if flow_id is not None:
            router.journal.record("flow.evicted", flow=flow_id,
                                  vlan=record.vlan,
                                  phase=record.phase.value)
    handoff.uninstall(router, record)
    router.flowtable.unbind(record)
    router._by_mux.pop(record.mux_port, None)
    router._by_nonce.pop(record.nonce_port, None)
    router._trace_ids.pop(record.mux_port, None)
    if record.phase not in (FlowPhase.DROPPED, FlowPhase.REFUSED):
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
            flow=router._trace_ids.get(record.mux_port),
            vlan=record.vlan)
    abort_flow(router, record, notify_client=False)
    evict(router, record)
    router.barrier.note_isolation()


def timeout(router, entry: FlowEntry, now: float) -> None:
    """An entry's idle or hard timeout has passed: demote the whole
    flow's rules (both directions age together, like
    expire_idle_flows) and journal the reason.  The next packet
    re-installs via the table-miss path if the flow is still live."""
    reason = entry.timeout_reason(now)
    if reason == "hard":
        router.flowtable.timeout_hard += 1
    else:
        router.flowtable.timeout_idle += 1
    handoff.uninstall(router, entry.record, reason=reason)


def arm(router) -> None:
    if router._housekeeping_armed:
        return
    router._housekeeping_armed = True
    router.sim.schedule(router.housekeeping_interval, housekeep, router,
                        label="flow-housekeeping")


def housekeep(router) -> None:
    router._housekeeping_armed = False
    router.sweep_flowtable()
    router.expire_idle_flows(router.flow_idle_timeout)
    if router._by_mux:
        arm(router)
