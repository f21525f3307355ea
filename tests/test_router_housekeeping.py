"""Router housekeeping costs what is live, not what ever was.

A GQ deployment runs for years (the paper's did for six), so anything
the router does per tick or per inmate revert must not grow with the
flow history.  Scripted against the bare router (the bench harness):
``expire_idle_flows`` / ``active_flow_count`` / ``forget_inmate`` walk
the live demux table, evict in creation order and never touch the
history list; a flow's UDP hold queue exists only while it is needed;
and a stray on an ENFORCED flow's reversed originator tuple — a tuple
the flow is indexed under but has no rule for — is dropped.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                "benchmarks"))
from bench_hotpath import RouterHarness, TARGET_IP, TARGET_PORT  # noqa: E402

from repro.core.shim import ResponseShim  # noqa: E402
from repro.core.verdicts import Verdict  # noqa: E402
from repro.gateway.flows import FlowPhase  # noqa: E402
from repro.net.addresses import IPv4Address, MacAddress  # noqa: E402
from repro.net.packet import (  # noqa: E402
    ACK,
    EthernetFrame,
    IPv4Packet,
    PSH,
    TCPSegment,
    UDPDatagram,
)

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


def _aged_router():
    """HISTORY flows long since evicted (a few refused or dropped among
    them), then LIVE enforced ones — every other one of those idle."""
    harness = RouterHarness()
    router = harness.router
    for index in range(HISTORY):
        verdict = Verdict.DROP if index % 10 == 0 else Verdict.FORWARD
        harness.establish_flow(VLAN, 30000 + index, verdict=verdict)
    assert router.expire_idle_flows(max_idle=-1.0) == HISTORY - HISTORY // 10
    live = [harness.establish_flow(VLAN, 40000 + index)
            for index in range(LIVE)]
    for record in live[::2]:
        record.last_activity = -1000.0
    harness.drain()
    router._by_mux = mux = _CountingMux(router._by_mux)
    router._flows = _NeverWalked(router._flows)
    evicted = []
    evict = router._evict
    router._evict = lambda record: evicted.append(record) or evict(record)
    return harness, live, mux, evicted


def test_expiry_visits_only_records_that_still_hold_demux_state():
    harness, live, mux, evicted = _aged_router()
    router = harness.router
    # DROPPED flows keep their drop rule (and mux port) until evicted;
    # everything else of the history is gone from the demux table.
    in_table = HISTORY // 10 + LIVE
    assert len(mux) == in_table and len(router._flows) == HISTORY + LIVE

    assert router.active_flow_count() == LIVE
    assert mux.visited == in_table

    assert router.expire_idle_flows(max_idle=500.0) == 3
    assert mux.visited == 2 * in_table
    assert evicted == live[::2]  # creation order
    assert [record.phase for record in live] == [
        FlowPhase.CLOSED, FlowPhase.ENFORCED] * 2 + [FlowPhase.CLOSED]
    assert router.active_flow_count() == 2


def test_forget_inmate_evicts_the_inmates_live_flows_in_order():
    harness, live, mux, evicted = _aged_router()
    router = harness.router
    router.forget_inmate(VLAN + 1)
    assert evicted == []
    router.forget_inmate(VLAN)
    assert evicted == live
    assert mux.visited == 2 * (HISTORY // 10 + LIVE)
    assert router.active_flow_count() == 0
    # Their tuples are free again: the same five-tuple starts afresh.
    router._flows.housekeeping = False
    again = harness.establish_flow(VLAN, 40000)
    assert again is not live[0] and again.phase is FlowPhase.ENFORCED


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
    """A NATed FORWARD flow is indexed under its reversed originator
    tuple (destination -> the inmate's *internal* address) but has no
    rule for it: the destination only ever answers the global address.
    A packet on that tuple is dropped — not handed to the inmate."""
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
