"""Flow-table forwarding against the golden slow-path wire digests.

Every scripted packet sequence here was first run through the router's
pre-table branch tree (the "slow path" post-verdict packets used to
take) and a sha256 of everything observable — emissions as serialized
wire bytes per output channel, router counters, flow log, per-flow
byte/packet accounting — recorded in ``tests/golden/router_wire.json``.
The flow table is now the only post-verdict path; these tests hold it
to those digests, which also catches the case a two-path comparison
cannot: both paths drifting together.
"""

from __future__ import annotations

import pytest

from repro.core.server import CS_DEFAULT_PORT
from repro.core.verdicts import Verdict
from repro.gateway import housekeeping
from repro.net.packet import (
    ACK,
    FIN,
    IPv4Packet,
    PSH,
    RST,
    TCPSegment,
    UDPDatagram,
)
from tests.golden import expected, wire_digest
from tests.helpers import RouterHarness, TARGET_PORT, newest_flow, run_farm

VLAN = 2
SPORT = 40000
CLIENT_ISN = 1000
CS_ISN = 5000
DST_ISN = 9000


def wire_state(harness: RouterHarness) -> dict:
    """Everything observable about a harness run, serialized."""
    return {
        "to_vlan": [p.to_bytes() for p in harness.to_vlan],
        "to_service": [p.to_bytes() for p in harness.to_service],
        "upstream": [p.to_bytes() for p in harness.upstream],
        "counters": dict(harness.router.counters),
        "flow_log": [
            (e.timestamp, e.vlan, str(e.orig), e.verdict, e.policy)
            for e in harness.router.flow_log
        ],
        "flows": [
            (str(r.orig), r.phase.value, r.verdict_name,
             r.c2s_packets, r.s2c_packets, r.c2s_bytes, r.s2c_bytes,
             r.last_activity)
            for r in harness.records
        ],
    }


#: name -> zero-argument callable returning the script's wire_state();
#: tests/golden/regen.py digests every entry.
GOLDEN = {}


def golden(name):
    """Register ``script(harness)`` under ``name`` in :data:`GOLDEN`."""
    def register(script):
        def run() -> dict:
            harness = RouterHarness(seed=7)
            script(harness)
            harness.sim.run(until=600.0)  # flush shaped (LIMIT) emissions
            return wire_state(harness)
        GOLDEN[name] = run
        return script
    return register


def check_golden(name) -> None:
    assert wire_digest(GOLDEN[name]()) == expected(name)


def pump_tcp(harness: RouterHarness, record, rounds: int = 5) -> None:
    """Drive data both ways over an established TCP flow."""
    inmate_ip = record.orig.orig_ip
    payload = b"d" * 64
    seq = CLIENT_ISN + 1
    for i in range(rounds):
        harness.inmate_tcp(VLAN, inmate_ip, SPORT, TARGET_PORT,
                           seq, CS_ISN + 1, ACK | PSH, payload)
        seq += len(payload)
    if record.phase.value != "enforced" or record.decision is None:
        return
    if record.decision.verdict & Verdict.REWRITE:
        # Return data rides the containment-server leg.
        for i in range(rounds):
            reply = TCPSegment(CS_DEFAULT_PORT, record.mux_port,
                               CS_ISN + 100 + 64 * i, seq,
                               ACK | PSH, payload=b"r" * 64)
            harness.router.service_frame(
                _service_frame(harness, record, reply))
        return
    # Return data from the enforced destination.
    if record.spoof_preserve:
        reply_ip, local_ip = record.orig.resp_ip, inmate_ip
    else:
        reply_ip = record.dst_ip
        local_ip = record.nat_global or inmate_ip
    for i in range(rounds):
        reply = TCPSegment(record.dst_port, SPORT,
                           DST_ISN + 1 + 64 * i, seq,
                           ACK | PSH, payload=b"r" * 64)
        harness.router.upstream_packet(IPv4Packet(reply_ip, local_ip, reply))


def _service_frame(harness, record, transport):
    from repro.net.packet import EthernetFrame
    from repro.net.addresses import MacAddress
    return EthernetFrame(
        MacAddress("02:00:00:00:00:03"), harness.mac,
        IPv4Packet(harness.router.cs_ip, record.orig.orig_ip, transport))


def pump_udp(harness: RouterHarness, record, rounds: int = 5) -> None:
    inmate_ip = record.orig.orig_ip
    for i in range(rounds):
        harness.inmate_udp(VLAN, inmate_ip, SPORT, TARGET_PORT,
                           b"d" * (32 + i))
    if record.phase.value != "enforced" or record.decision is None:
        return
    if record.decision.verdict & Verdict.REWRITE:
        return  # CS->client UDP needs per-datagram shims; covered below
    if record.spoof_preserve:
        reply_ip, local_ip = record.orig.resp_ip, inmate_ip
    else:
        reply_ip = record.dst_ip
        local_ip = record.nat_global or inmate_ip
    for i in range(rounds):
        reply = UDPDatagram(record.dst_port, SPORT, b"r" * (32 + i))
        harness.router.upstream_packet(IPv4Packet(reply_ip, local_ip, reply))


TCP_CASES = [
    ("forward", Verdict.FORWARD, {}),
    ("limit", Verdict.LIMIT, {"rate": 4000.0}),
    ("drop", Verdict.DROP, {}),
    ("redirect", Verdict.REDIRECT,
     {"target": "198.51.100.9", "target_port": 8080}),
    ("reflect", Verdict.REFLECT, {"target": "198.51.100.44"}),
    ("rewrite", Verdict.REWRITE, {}),
]


def _tcp_script(verdict, kwargs):
    def script(harness):
        record = harness.establish_flow(
            VLAN, SPORT, verdict=verdict,
            client_isn=CLIENT_ISN, dst_isn=DST_ISN, **kwargs)
        pump_tcp(harness, record)
    return script


def _udp_script(verdict, kwargs):
    def script(harness):
        record = harness.establish_udp_flow(
            VLAN, SPORT, verdict=verdict, **kwargs)
        pump_udp(harness, record)
    return script


for _name, _verdict, _kwargs in TCP_CASES:
    golden(f"tcp-{_name}")(_tcp_script(_verdict, _kwargs))
    golden(f"udp-{_name}")(_udp_script(_verdict, _kwargs))


@pytest.mark.parametrize("name", [c[0] for c in TCP_CASES])
def test_tcp_parity(name):
    check_golden(f"tcp-{name}")


@pytest.mark.parametrize("name", [c[0] for c in TCP_CASES])
def test_udp_parity(name):
    check_golden(f"udp-{name}")


@golden("tcp-fin-and-rst")
def _fin_and_rst(harness):
    record = harness.establish_flow(
        VLAN, SPORT, client_isn=CLIENT_ISN, dst_isn=DST_ISN)
    pump_tcp(harness, record, rounds=2)
    inmate_ip = record.orig.orig_ip
    harness.inmate_tcp(VLAN, inmate_ip, SPORT, TARGET_PORT,
                       CLIENT_ISN + 129, CS_ISN + 1, FIN | ACK)
    harness.inmate_tcp(VLAN, inmate_ip, SPORT, TARGET_PORT,
                       CLIENT_ISN + 130, CS_ISN + 1, RST)


def test_tcp_fin_and_rst_parity():
    """FIN close rides the table entry; RST goes packet-in, which
    relays it to the destination and retires the flow."""
    check_golden("tcp-fin-and-rst")


@golden("reverdict-after-eviction")
def _reverdict_after_eviction(harness):
    record = harness.establish_flow(
        VLAN, SPORT, client_isn=CLIENT_ISN, dst_isn=DST_ISN)
    pump_tcp(harness, record, rounds=3)
    # Same five-tuple, new ISN: port reuse after close.  The old
    # record is evicted mid-establishment and the new flow draws a
    # DROP this time, which ends it on the wire: what the client
    # sends after is a mid-flow packet of no flow.
    newest = harness.establish_flow(
        VLAN, SPORT, verdict=Verdict.DROP,
        client_isn=CLIENT_ISN + 77777, dst_isn=DST_ISN)
    pump_tcp(harness, newest, rounds=3)


def test_reverdict_after_eviction_parity():
    """A new SYN incarnation evicts the flow (and its entries); the
    re-contained flow can land on a different verdict."""
    check_golden("reverdict-after-eviction")
    harness = RouterHarness(seed=7)
    _reverdict_after_eviction(harness)
    (first, second) = harness.records
    assert [entry.verdict for entry in harness.router.flow_log] == [
        "FORWARD", "DROP"]
    assert not first.keys and not second.keys
    assert not harness.router._by_mux and not harness.router._table


def test_evicted_handlers_are_uninstalled():
    harness = RouterHarness(seed=7)
    record = harness.establish_flow(VLAN, SPORT, client_isn=CLIENT_ISN,
                                    dst_isn=DST_ISN)
    table = harness.router.flowtable
    assert len(table.rules(record)) == 2
    bound = list(record.keys)
    # Both tuples and the alias: the server's leg went at the verdict.
    assert len(bound) == 3 and record.cs_ip.value not in [
        key[0] for key in bound]
    housekeeping.evict(harness.router, record)
    for key in bound:
        assert key not in table.entries
    assert not record.keys and not table.rules(record) and not len(table)


def test_reverdict_reinstalls_fresh_handlers():
    harness = RouterHarness(seed=7)
    first = harness.establish_flow(VLAN, SPORT, client_isn=CLIENT_ISN,
                                   dst_isn=DST_ISN)
    table = harness.router.flowtable
    first_keys = [rule.key for rule in table.rules(first)]
    second = harness.establish_flow(VLAN, SPORT, verdict=Verdict.LIMIT,
                                    rate=4000.0, client_isn=CLIENT_ISN + 5,
                                    dst_isn=DST_ISN)
    assert second is not first and second is newest_flow(harness.router)
    assert not first.keys, "stale rows must not survive eviction"
    handlers = table.rules(second)
    assert len(handlers) == 2 and all(handler.shaped
                                      for handler in handlers)
    for handler in handlers:
        assert table.entries[handler.key] is handler
    # The orig-tuple key is shared between incarnations; the live
    # handler must belong to the newest record.
    assert first_keys[0] == handlers[0].key == second.orig_key
    # A third incarnation that draws a DROP ends at its verdict: it
    # leaves no handler, and takes the second's with it.
    third = harness.establish_flow(VLAN, SPORT, verdict=Verdict.DROP,
                                   client_isn=CLIENT_ISN + 9,
                                   dst_isn=DST_ISN)
    assert not second.keys and not third.keys
    assert not table.rules() and not harness.router._by_mux


def test_pumped_packets_bypass_slow_dispatch():
    """The golden tests are not vacuous: established-flow data really
    is handled by the table entries, not the controller's branch tree."""
    harness = RouterHarness(seed=7)
    record = harness.establish_flow(VLAN, SPORT, client_isn=CLIENT_ISN,
                                    dst_isn=DST_ISN)
    table = harness.router.flowtable
    misses = table.misses
    pump_tcp(harness, record, rounds=4)
    assert table.misses == misses and table.hits >= 8, \
        "post-verdict data should never hit the slow path"
    assert record.c2s_packets > 1 and record.s2c_packets > 1


@golden("udp-rewrite-return-content")
def _udp_rewrite_return_content(harness):
    from repro.core.shim import ResponseShim

    record = harness.establish_udp_flow(VLAN, SPORT,
                                        verdict=Verdict.REWRITE)
    pump_udp(harness, record, rounds=3)
    shim = ResponseShim(record.orig, Verdict.REWRITE,
                        policy="bench").to_bytes()
    content = UDPDatagram(CS_DEFAULT_PORT, record.mux_port,
                          shim + b"rewritten-content")
    harness.router.service_frame(_service_frame(harness, record,
                                                content))


def test_udp_rewrite_return_content_parity():
    """CS->client UDP REWRITE content (shim-wrapped) stays with the
    controller and reaches the client as it always did."""
    check_golden("udp-rewrite-return-content")


# ----------------------------------------------------------------------
# Golden seed: the whole farm, byte for byte
# ----------------------------------------------------------------------
def _farm_seed_23() -> dict:
    result = run_farm(seed=23, inmates=2, rounds=12, duration=60.0)
    return {key: result[key]
            for key in ("digest", "events", "packets_relayed")}


GOLDEN["farm-seed-23"] = _farm_seed_23


def test_golden_seed_farm_parity():
    """End-to-end: flow logs, counters, upstream trace bytes, telemetry
    and the virtual-clock outcome match the slow-path recording, and
    replaying the same seed reproduces them exactly."""
    first = _farm_seed_23()
    assert wire_digest(first) == expected("farm-seed-23")
    assert _farm_seed_23() == first
