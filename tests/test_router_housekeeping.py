"""Router housekeeping costs what is live, not what ever was — and
gives back everything that is not.

A GQ deployment runs for years (the paper's did for six), so anything
the router does per tick or per inmate revert must not grow with the
flow history.  Scripted against the bare router (``RouterHarness``):
``expire_idle_flows`` / ``active_flow_count`` / ``forget_inmate`` walk
the live demux table, evict in creation order and never touch the
history list; every record idle past ``flow_idle_timeout`` — dropped
and aborted flows as much as live ones — gives its ports and rows
back, and a port space that is genuinely full refuses the flow instead
of unwinding the event loop; a flow's UDP hold queue exists only while
it is needed; and a stray on an ENFORCED flow's reversed originator
tuple — a tuple the flow has a row for but no rule — is dropped.
"""

from __future__ import annotations

from repro.core.shim import ResponseShim
from repro.core.verdicts import Verdict
from repro.gateway import housekeeping
from repro.gateway.flows import FlowPhase
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.packet import (
    ACK,
    EthernetFrame,
    IPv4Packet,
    PSH,
    RST,
    SYN,
    TCPSegment,
    UDPDatagram,
)
from repro.obs.journal import Journal
from tests.helpers import RouterHarness, TARGET_IP, TARGET_PORT

VLAN = 2
HISTORY, LIVE = 120, 5


class _CountingMux(dict):
    """``_by_mux`` that counts the records handed out by ``values``."""

    visited = 0

    def values(self):
        for record in super().values():
            self.visited += 1
            yield record


class _NeverWalked(list):
    """``_flows`` that fails the test if housekeeping iterates it."""

    housekeeping = True

    def __iter__(self):
        assert not self.housekeeping, "walked the flow history"
        return super().__iter__()


def _aged_router(monkeypatch):
    """HISTORY flows long since evicted (a few refused or dropped among
    them), then LIVE enforced ones — every other one of those idle."""
    harness = RouterHarness()
    router = harness.router
    for index in range(HISTORY):
        verdict = Verdict.DROP if index % 10 == 0 else Verdict.FORWARD
        harness.establish_flow(VLAN, 30000 + index, verdict=verdict)
    assert router.expire_idle_flows(max_idle=-1.0) == HISTORY
    assert not router._by_mux and not router.flowtable.entries
    live = [harness.establish_flow(VLAN, 40000 + index)
            for index in range(LIVE)]
    for record in live[::2]:
        record.last_activity = -1000.0
    harness.drain()
    router._by_mux = mux = _CountingMux(router._by_mux)
    router._flows = _NeverWalked(router._flows)
    evicted = []
    evict = housekeeping.evict
    monkeypatch.setattr(housekeeping, "evict", lambda router, record: (
        evicted.append(record), evict(router, record)))
    return harness, live, mux, evicted


def test_expiry_visits_only_records_that_still_hold_demux_state(monkeypatch):
    harness, live, mux, evicted = _aged_router(monkeypatch)
    router = harness.router
    # The whole history — the dropped flows too — is gone from the
    # demux table.
    in_table = LIVE
    assert len(mux) == in_table and len(router._flows) == HISTORY + LIVE

    assert router.active_flow_count() == LIVE
    assert mux.visited == in_table

    assert router.expire_idle_flows(max_idle=500.0) == 3
    assert mux.visited == 2 * in_table
    assert evicted == live[::2]  # creation order
    assert [record.phase for record in live] == [
        FlowPhase.CLOSED, FlowPhase.ENFORCED] * 2 + [FlowPhase.CLOSED]
    assert router.active_flow_count() == 2


def test_forget_inmate_evicts_the_inmates_live_flows_in_order(monkeypatch):
    harness, live, mux, evicted = _aged_router(monkeypatch)
    router = harness.router
    router.forget_inmate(VLAN + 1)
    assert evicted == []
    router.forget_inmate(VLAN)
    assert evicted == live
    assert mux.visited == 2 * LIVE
    assert router.active_flow_count() == 0
    # Their tuples are free again: the same five-tuple starts afresh.
    router._flows.housekeeping = False
    again = harness.establish_flow(VLAN, 40000)
    assert again is not live[0] and again.phase is FlowPhase.ENFORCED


def test_terminal_flows_give_their_demux_state_back():
    """A dropped flow keeps its mux port, rows and drop rule only while
    it is of any use: 20,050 DROP verdicts — more than there are mux
    ports — on one router with housekeeping running raise nothing, and
    what is held at any time is what was active within
    ``flow_idle_timeout`` (plus one housekeeping interval)."""
    harness = RouterHarness()
    router = harness.router
    spacing = 0.5
    bound = (router.flow_idle_timeout + router.housekeeping_interval) \
        / spacing + 1
    peak = 0
    for index in range(20050):
        harness.establish_flow(VLAN, 1024 + index % 50000,
                               verdict=Verdict.DROP)
        harness.sim.run(until=harness.sim.now + spacing)
        harness.drain()
        peak = max(peak, len(router._by_mux))
    assert router.counters["flows_created"] == 20050
    assert router.counters["flows_refused"] == 0
    assert peak <= bound and router.active_flow_count() == 0
    # Rows and rules go with the ports: three keys (both tuples, the
    # server's leg) and one rule apiece.
    assert len(router.flowtable.entries) == 3 * len(router._by_mux)
    assert len(router.flowtable) == len(router._by_mux)
    # ... and all of it once the router has been quiet long enough.
    harness.sim.run(until=harness.sim.now + 1000.0)
    assert not router._by_mux and not router._by_nonce
    assert not router.flowtable.entries and not len(router.flowtable)


def test_aborted_flows_are_reclaimed_like_any_other():
    harness = RouterHarness()
    router = harness.router
    inmate_ip = harness.nat.bind(VLAN)
    for index in range(100):
        record = harness.establish_flow(VLAN, 30000 + index)
        harness.inmate_tcp(VLAN, inmate_ip, 30000 + index, TARGET_PORT,
                           2000, 9001, RST | ACK)
        assert record.phase is FlowPhase.CLOSED
    assert len(router._by_mux) == 100 and router.active_flow_count() == 0
    harness.sim.run(until=1000.0)
    assert not router._by_mux and not router.flowtable.entries
    # The tuple is free: a SYN on it is a new flow with its own verdict,
    # anything else is dropped as mid-flow.
    harness.drain()
    harness.inmate_tcp(VLAN, inmate_ip, 30000, TARGET_PORT, 2001, 9001,
                       ACK | PSH, b"late")
    assert harness.to_service == harness.upstream == []
    assert harness.establish_flow(VLAN, 30000).phase is FlowPhase.ENFORCED


def test_a_full_port_space_refuses_the_flow():
    """Exhaustion is a refusal with a journalled reason, never an
    exception out of ``inmate_frame`` (i.e. through ``sim.run``)."""
    harness = RouterHarness()
    router = harness.router
    router.PORT_SLOTS = 8
    router.journal = Journal(clock=lambda: harness.sim.now)
    for index in range(8):
        harness.establish_flow(VLAN, 30000 + index)
    assert len(router._by_mux) == 8
    harness.drain()

    inmate_ip = harness.nat.bind(VLAN)
    harness.inmate_tcp(VLAN, inmate_ip, 31000, TARGET_PORT, 1000, 0, SYN)
    refused = router.flows()[-1]
    assert refused.phase is FlowPhase.REFUSED and not refused.keys
    assert router.counters["flows_refused"] == 1
    assert router.flow_log[-1].verdict == "REFUSED"
    assert harness.to_service == harness.to_vlan == harness.upstream == []
    (event,) = [event for event in router.journal.events()
                if event.kind == "flow.refused"]
    assert event.fields["reason"] == "mux-exhausted"

    # Housekeeping frees a slot; the retransmitted SYN is admitted.
    router.expire_idle_flows(max_idle=-1.0)
    harness.inmate_tcp(VLAN, inmate_ip, 31000, TARGET_PORT, 1000, 0, SYN)
    assert router.flows()[-1].phase is FlowPhase.SHIM


def test_udp_hold_queue_exists_only_while_the_verdict_is_pending():
    harness = RouterHarness()
    router = harness.router
    tcp = harness.establish_flow(VLAN, 40000)
    assert tcp.udp_pending is None  # never allocated for a TCP flow
    harness.drain()

    inmate_ip = harness.nat.bind(VLAN)
    harness.inmate_udp(VLAN, inmate_ip, 5353, TARGET_PORT, b"first")
    record = router.flows()[-1]
    harness.inmate_udp(VLAN, inmate_ip, 5353, TARGET_PORT, b"second")
    assert [held.payload for held in record.udp_pending] == [
        b"first", b"second"]
    assert harness.upstream == []

    # The verdict replays what was held, in order, and lets it go.
    shim = ResponseShim(record.orig, Verdict.FORWARD, policy="t").to_bytes()
    router.service_frame(EthernetFrame(
        MacAddress("02:00:00:00:00:03"), harness.mac,
        IPv4Packet(router.cs_ip, inmate_ip,
                   UDPDatagram(router.cs_udp_port, record.mux_port, shim))))
    assert [p.udp.payload for p in harness.upstream] == [b"first", b"second"]
    assert record.phase is FlowPhase.ENFORCED and record.udp_pending is None


def test_stray_on_the_reversed_originator_tuple_is_dropped():
    """A NATed FORWARD flow has a row for its reversed originator
    tuple (destination -> the inmate's *internal* address) but no rule
    on it: the destination only ever answers the global address.  A
    packet on that tuple is dropped — not handed to the inmate."""
    harness = RouterHarness()
    router = harness.router
    record = harness.establish_flow(VLAN, 40000)
    assert record.phase is FlowPhase.ENFORCED
    inmate_ip, global_ip = record.orig.orig_ip, record.nat_global
    assert global_ip is not None and global_ip != inmate_ip
    harness.drain()
    before = (record.s2c_packets, record.s2c_bytes,
              router.counters["packets_relayed"])

    def from_target(dst: IPv4Address) -> IPv4Packet:
        segment = TCPSegment(TARGET_PORT, 40000, 9001, 2000, ACK | PSH,
                             payload=b"stray")
        return IPv4Packet(IPv4Address(TARGET_IP), dst, segment)

    router.upstream_packet(from_target(inmate_ip))
    assert harness.to_vlan == harness.upstream == harness.to_service == []
    assert (record.s2c_packets, record.s2c_bytes,
            router.counters["packets_relayed"]) == before
    assert record.phase is FlowPhase.ENFORCED

    # The same segment on the leg the flow does have a rule for goes
    # through, translated back to the internal address.
    router.upstream_packet(from_target(global_ip))
    (delivered,) = harness.to_vlan
    assert delivered.dst == inmate_ip and delivered.tcp.payload == b"stray"
