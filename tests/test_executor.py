"""The one flow-table executor, kind by kind and delivery by delivery.

``test_executor_table`` drives ``flowtable.apply`` with five segment
shapes against a row of each of the eleven action kinds and checks, per
packet, everything the executor may do: the emitted bytes, the flow's
accounting, the router counter, and whether the packet went to the
controller instead.  Nine kinds are met as installed rules; the coupled
ones are met a second time as what they are before the verdict — the
same rows, not installed, every packet a packet-in that the controller
runs through the row itself (deltas 0 until the request shim has gone
in and the response shim has come out) — and the two nonce kinds only
so.  The expectations are written out here, not read from
``flowtable.SPECS`` — the table under test cannot vouch for itself.

``test_delivery_modes_agree`` is the property that used to be held by
three hand-kept copies of the rewrite: a random script gives the same
wire bytes, accounting and table statistics whether it is delivered one
frame at a time, through ``inmate_frame_batch`` in arbitrary chunks, or
as ``WireBatch`` columns through ``ingest_batch``.
"""

from __future__ import annotations

import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                "benchmarks"))
from bench_hotpath import RouterHarness, TARGET_IP, TARGET_PORT  # noqa: E402

from repro.core.shim import RequestShim  # noqa: E402
from repro.core.verdicts import Verdict  # noqa: E402
from repro.gateway.flowtable import (  # noqa: E402
    EMIT_CS,
    EMIT_SERVICE,
    EMIT_UPSTREAM,
    EMIT_VLAN,
    apply,
)
from repro.net.addresses import IPv4Address, MacAddress  # noqa: E402
from repro.net.packet import (  # noqa: E402
    ACK,
    EthernetFrame,
    FIN,
    IPv4Packet,
    PSH,
    RST,
    SYN,
    TCPSegment,
    UDPDatagram,
)
from repro.net.wirebatch import (  # noqa: E402
    BatchOutput,
    ORIGIN_UPSTREAM,
    WireBatch,
)

VLAN = 2
SPORT = 40000
CLIENT_ISN, CS_ISN, DST_ISN = 1000, 5000, 9000

# What the harness's fixed pools and ports hand out.
INMATE = IPv4Address("10.100.0.1")
GLOBAL = IPv4Address("198.18.0.1")
TARGET = IPv4Address(TARGET_IP)
CS = IPv4Address("10.3.0.1")
CS_PORT = 6666
MUX = 20000
REQ_SHIM = 24      # bytes injected toward the containment server
RSP_SHIM = 56      # bytes stripped from its reply
ISN_SHIFT = CS_ISN - DST_ISN   # destination ISN space -> CS ISN space

SEQ, ACK_FIELD = 70000, 80000
DATA = b"d" * 64

# name -> (TCP flags, payload)
SEGMENTS = {
    "data": (ACK | PSH, DATA),
    "ackless": (PSH, DATA),
    "fin": (FIN | ACK, b""),
    "syn": (SYN, b""),
    "rst": (RST | ACK, b""),
}

WORLD = IPv4Address("203.0.113.99")   # whom the server dials onward
WORLD_PORT = 8080
NONCE = 40000

# kind -> (verdict, udp flow?, arrives as (src, sport, dst, dport),
#          leaves as (channel, src, sport, dst, dport)).  A verdict of
# None stops the flow in the SHIM phase, the request shim just in: the
# "/shim" kinds are the coupled rows as the controller uses them.
KINDS = {
    "tcp-c2cs/shim": (None, False,
                      (INMATE, SPORT, TARGET, TARGET_PORT),
                      ("to_service", INMATE, MUX, CS, CS_PORT)),
    "tcp-cs2c/shim": (None, False,
                      (CS, CS_PORT, INMATE, MUX),
                      ("to_vlan", TARGET, TARGET_PORT, INMATE, SPORT)),
    "udp-c2cs/shim": (None, True,
                      (INMATE, SPORT, TARGET, TARGET_PORT),
                      ("to_service", INMATE, MUX, CS, CS_PORT)),
    "tcp-cs2w": (Verdict.REWRITE, False,
                 (CS, NONCE, WORLD, WORLD_PORT),
                 ("upstream", GLOBAL, SPORT, WORLD, WORLD_PORT)),
    "tcp-w2cs": (Verdict.REWRITE, False,
                 (WORLD, WORLD_PORT, GLOBAL, SPORT),
                 ("to_service", WORLD, WORLD_PORT, CS, NONCE)),
    "tcp-c2d": (Verdict.FORWARD, False,
                (INMATE, SPORT, TARGET, TARGET_PORT),
                ("upstream", GLOBAL, SPORT, TARGET, TARGET_PORT)),
    "tcp-d2c": (Verdict.FORWARD, False,
                (TARGET, TARGET_PORT, GLOBAL, SPORT),
                ("to_vlan", TARGET, TARGET_PORT, INMATE, SPORT)),
    "tcp-c2cs": (Verdict.REWRITE, False,
                 (INMATE, SPORT, TARGET, TARGET_PORT),
                 ("to_service", INMATE, MUX, CS, CS_PORT)),
    "tcp-cs2c": (Verdict.REWRITE, False,
                 (CS, CS_PORT, INMATE, MUX),
                 ("to_vlan", TARGET, TARGET_PORT, INMATE, SPORT)),
    "udp-c2d": (Verdict.FORWARD, True,
                (INMATE, SPORT, TARGET, TARGET_PORT),
                ("upstream", GLOBAL, SPORT, TARGET, TARGET_PORT)),
    "udp-d2c": (Verdict.FORWARD, True,
                (TARGET, TARGET_PORT, GLOBAL, SPORT),
                ("to_vlan", TARGET, TARGET_PORT, INMATE, SPORT)),
    "udp-c2cs": (Verdict.REWRITE, True,
                 (INMATE, SPORT, TARGET, TARGET_PORT),
                 ("to_service", INMATE, MUX, CS, CS_PORT)),
    "drop-tcp": (Verdict.DROP, False,
                 (INMATE, SPORT, TARGET, TARGET_PORT), None),
    "drop-udp": (Verdict.DROP, True,
                 (INMATE, SPORT, TARGET, TARGET_PORT), None),
}

M = 0xFFFFFFFF
PACKET_IN = "packet-in"
SWALLOW = "swallow"

# (kind, segment) -> PACKET_IN, SWALLOW, or the rewrite:
#   (seq out, ack out, side counted, client_fin set, last_activity
#    refreshed, router counter bumped)
# UDP kinds ignore the segment shape: one "data" row each, seq/ack None.
EXPECT = {
    # Originator -> enforced destination: only the ack moves (into the
    # destination's ISN space); SYN and RST are the controller's.
    ("tcp-c2d", "data"): (SEQ, (ACK_FIELD - ISN_SHIFT) & M, "c2s",
                          False, True, "packets_relayed"),
    ("tcp-c2d", "ackless"): (SEQ, ACK_FIELD, "c2s", False, True,
                             "packets_relayed"),
    ("tcp-c2d", "fin"): (SEQ, (ACK_FIELD - ISN_SHIFT) & M, "c2s",
                         False, True, "packets_relayed"),
    ("tcp-c2d", "syn"): PACKET_IN,
    ("tcp-c2d", "rst"): PACKET_IN,
    # Destination -> originator: seq into the CS ISN space, the request
    # shim out of the ack; nothing is state-changing on this leg.
    ("tcp-d2c", "data"): ((SEQ + ISN_SHIFT) & M, ACK_FIELD - REQ_SHIM,
                          "s2c", False, True, "packets_relayed"),
    ("tcp-d2c", "ackless"): ((SEQ + ISN_SHIFT) & M, ACK_FIELD, "s2c",
                             False, True, "packets_relayed"),
    ("tcp-d2c", "fin"): ((SEQ + ISN_SHIFT) & M, ACK_FIELD - REQ_SHIM,
                         "s2c", False, True, "packets_relayed"),
    ("tcp-d2c", "syn"): ((SEQ + ISN_SHIFT) & M, ACK_FIELD, "s2c",
                         False, True, "packets_relayed"),
    ("tcp-d2c", "rst"): ((SEQ + ISN_SHIFT) & M, ACK_FIELD - REQ_SHIM,
                         "s2c", False, True, "packets_relayed"),
    # Originator -> containment server: SEQ += |REQ SHIM|, the stripped
    # response shim back into the ack, ack zeroed without ACK, FIN noted.
    ("tcp-c2cs", "data"): (SEQ + REQ_SHIM, ACK_FIELD + RSP_SHIM, "c2s",
                           False, True, "packets_relayed"),
    ("tcp-c2cs", "ackless"): (SEQ + REQ_SHIM, 0, "c2s", False, True,
                              "packets_relayed"),
    ("tcp-c2cs", "fin"): (SEQ + REQ_SHIM, ACK_FIELD + RSP_SHIM, "c2s",
                          True, True, "packets_relayed"),
    ("tcp-c2cs", "syn"): PACKET_IN,
    ("tcp-c2cs", "rst"): PACKET_IN,
    # Containment server -> originator: SEQ -= |RSP SHIM|, the request
    # shim out of the ack; no last_activity refresh; RST is an abort.
    ("tcp-cs2c", "data"): (SEQ - RSP_SHIM, ACK_FIELD - REQ_SHIM, "s2c",
                           False, False, "packets_relayed"),
    ("tcp-cs2c", "ackless"): (SEQ - RSP_SHIM, ACK_FIELD, "s2c", False,
                              False, "packets_relayed"),
    ("tcp-cs2c", "fin"): (SEQ - RSP_SHIM, ACK_FIELD - REQ_SHIM, "s2c",
                          False, False, "packets_relayed"),
    ("tcp-cs2c", "syn"): (SEQ - RSP_SHIM, ACK_FIELD, "s2c", False, False,
                          "packets_relayed"),
    ("tcp-cs2c", "rst"): PACKET_IN,
    ("udp-c2d", "data"): (None, None, "c2s", False, True,
                          "packets_relayed"),
    # Return datagrams are not counted as relayed (they never were).
    ("udp-d2c", "data"): (None, None, "s2c", False, True, None),
    ("udp-c2cs", "data"): (None, None, "c2s", False, True,
                           "shims_injected"),
    # A dropped tuple swallows everything but a SYN (new incarnation?).
    ("drop-tcp", "data"): SWALLOW,
    ("drop-tcp", "ackless"): SWALLOW,
    ("drop-tcp", "fin"): SWALLOW,
    ("drop-tcp", "syn"): PACKET_IN,
    ("drop-tcp", "rst"): SWALLOW,
    ("drop-udp", "data"): SWALLOW,
    # The nonce leg is NAT: nothing moves but addresses and ports, and
    # the flow's own accounting does not see it.  Only what comes back
    # counts as the flow's activity.
    **{("tcp-cs2w", shape): (SEQ, ACK_FIELD, None, False, False,
                             "packets_relayed") for shape in SEGMENTS},
    **{("tcp-w2cs", shape): (SEQ, ACK_FIELD, None, False, True,
                             "packets_relayed") for shape in SEGMENTS},
    # Coupled, before the verdict: the request shim is in, the response
    # shim not yet out.  The controller has disabled packet-in, so SYN
    # and RST are rewritten like anything else.
    **{("tcp-c2cs/shim", shape): (
        SEQ + REQ_SHIM, ACK_FIELD if SEGMENTS[shape][0] & ACK else 0,
        "c2s", shape == "fin", True, "packets_relayed")
       for shape in SEGMENTS},
    **{("tcp-cs2c/shim", shape): (
        SEQ, ACK_FIELD - (REQ_SHIM if SEGMENTS[shape][0] & ACK else 0),
        "s2c", False, False, "packets_relayed") for shape in SEGMENTS},
    ("udp-c2cs/shim", "data"): (None, None, "c2s", False, True,
                                "shims_injected"),
}


def _accounting(record) -> dict:
    return {"c2s": (record.c2s_packets, record.c2s_bytes),
            "s2c": (record.s2c_packets, record.s2c_bytes),
            "client_fin": record.client_fin,
            "last_activity": record.last_activity}


def _coupled(harness, udp: bool):
    """A flow stopped in the SHIM phase: handshake relayed, request
    shim in (the first datagram, for UDP), no verdict yet."""
    inmate_ip = harness.nat.bind(VLAN)
    if udp:
        harness.inmate_udp(VLAN, inmate_ip, SPORT, TARGET_PORT, b"hello")
        return harness.router.flows()[-1]
    harness.inmate_tcp(VLAN, inmate_ip, SPORT, TARGET_PORT, CLIENT_ISN, 0,
                       SYN)
    harness.router.service_frame(EthernetFrame(
        MacAddress("02:00:00:00:00:03"), harness.mac,
        IPv4Packet(CS, inmate_ip, TCPSegment(
            CS_PORT, MUX, CS_ISN, CLIENT_ISN + 1, SYN | ACK))))
    harness.inmate_tcp(VLAN, inmate_ip, SPORT, TARGET_PORT, CLIENT_ISN + 1,
                       CS_ISN + 1, ACK)
    return harness.router.flows()[-1]


@pytest.mark.parametrize("kind,shape", sorted(EXPECT))
def test_executor_table(kind, shape):
    verdict, udp, (src, sport, dst, dport), leaves = KINDS[kind]
    harness = RouterHarness(seed=7)
    if verdict is None:
        record = _coupled(harness, udp)
        assert record.phase.value == "shim"
    elif udp:
        record = harness.establish_udp_flow(VLAN, SPORT, verdict=verdict)
    else:
        record = harness.establish_flow(VLAN, SPORT, verdict=verdict,
                                        client_isn=CLIENT_ISN,
                                        dst_isn=DST_ISN)
    router = harness.router
    if kind in ("tcp-cs2w", "tcp-w2cs"):
        # The server dials onward from the flow's nonce port.
        router.service_frame(EthernetFrame(
            MacAddress("02:00:00:00:00:03"), harness.mac,
            IPv4Packet(CS, WORLD, TCPSegment(NONCE, WORLD_PORT, 1, 0, SYN))))
    entry = router._table[(src.value, sport, dst.value, dport,
                           17 if udp else 6)]
    assert entry.spec.name == kind.partition("/")[0]
    # A coupled or nonce row is not a rule: every packet on it is a
    # miss, which the controller runs through the row itself.
    by_controller = verdict is None or kind in ("tcp-cs2w", "tcp-w2cs")
    assert entry.installed is not by_controller
    assert record.c2s_inj == (0 if udp else REQ_SHIM)

    flags, payload = SEGMENTS[shape]
    if udp:
        transport = UDPDatagram(sport, dport, DATA)
        payload = DATA
    else:
        transport = TCPSegment(sport, dport, SEQ, ACK_FIELD, flags,
                               payload=payload)
    controller = []
    router._legs = [lambda *args: controller.append(args)] * 4
    harness.drain()
    harness.sim.run(until=5.0)
    before = _accounting(record)
    counters = dict(router.counters)

    apply(router, entry, IPv4Packet(src, dst, transport),
          packet_in=not by_controller)

    expected = EXPECT[kind, shape]
    emitted = {"to_vlan": harness.to_vlan, "upstream": harness.upstream,
               "to_service": harness.to_service}
    after = _accounting(record)
    if expected == PACKET_IN:
        assert len(controller) == 1 and controller[0][0] is entry
        assert after == before and router.counters == counters
        assert not any(emitted.values())
        return
    assert not controller
    if expected == SWALLOW:
        assert after == {**before, "last_activity": 5.0}
        assert router.counters == counters
        assert not any(emitted.values())
        return

    seq, ack, side, fin_set, touched, counter = expected
    channel, out_src, out_sport, out_dst, out_dport = leaves
    if udp:
        prefix = (RequestShim(record.orig, VLAN,
                              record.nonce_port).to_bytes()
                  if kind.startswith("udp-c2cs") else b"")
        wire = IPv4Packet(out_src, out_dst, UDPDatagram(
            out_sport, out_dport, prefix + DATA)).to_bytes()
    else:
        wire = IPv4Packet(out_src, out_dst, TCPSegment(
            out_sport, out_dport, seq, ack, flags,
            payload=payload)).to_bytes()
    assert {name: [p.to_bytes() for p in packets]
            for name, packets in emitted.items() if packets} \
        == {channel: [wire]}

    want = dict(before)
    if side is not None:
        packets, nbytes = before[side]
        want[side] = (packets + 1, nbytes + len(payload))
    want["client_fin"] = fin_set
    if touched:
        want["last_activity"] = 5.0
    assert after == want
    if counter is not None:
        counters[counter] += 1
    assert router.counters == counters


def test_reinjection_ignores_packet_in_flags():
    """The controller re-injects with packet-in disabled: a retransmitted
    SYN of an enforced flow is forwarded by the flow's own entry."""
    harness = RouterHarness(seed=7)
    record = harness.establish_flow(VLAN, SPORT, client_isn=CLIENT_ISN,
                                    dst_isn=DST_ISN)
    harness.drain()
    harness.inmate_tcp(VLAN, INMATE, SPORT, TARGET_PORT, CLIENT_ISN, 0, SYN)
    (out,) = harness.upstream
    assert out.to_bytes() == IPv4Packet(GLOBAL, TARGET, TCPSegment(
        SPORT, TARGET_PORT, CLIENT_ISN, 0, SYN)).to_bytes()
    assert record.phase.value == "enforced"
    assert harness.router.flowtable.stats()["installs"] == 2


# ----------------------------------------------------------------------
# Delivery modes
# ----------------------------------------------------------------------
FLOW_MENU = [
    (False, Verdict.FORWARD, {}),
    (False, Verdict.LIMIT, {"rate": 4000.0}),   # shaped
    (False, Verdict.REWRITE, {}),
    (False, Verdict.DROP, {}),
    (True, Verdict.FORWARD, {}),
    (True, Verdict.REWRITE, {}),
]
FLAG_MENU = [ACK | PSH, ACK, PSH, FIN | ACK, SYN, RST | ACK]

steps = st.lists(
    st.tuples(st.sampled_from(["inmate", "inmate", "upstream", "cs",
                               "advance"]),
              st.integers(0, 2),                      # flow index
              st.sampled_from(FLAG_MENU),
              st.sampled_from([0, 1, 64, 512]),       # payload size
              st.integers(0, 4000)),                  # seq/ack offset
    min_size=1, max_size=40)


class _Delivery:
    """One harness plus the emission log every mode fills the same way:
    per channel, in emission order, the packets the harness captured
    (or, from a serialized BatchOutput, their wire bytes)."""

    def __init__(self, flows, idle_timeout) -> None:
        self.harness = harness = RouterHarness(seed=7)
        harness.router.flowtable_idle_timeout = idle_timeout
        self.flows = []
        for index, (udp, verdict, kwargs) in enumerate(flows):
            establish = (harness.establish_udp_flow if udp
                         else harness.establish_flow)
            self.flows.append((udp, establish(VLAN, SPORT + index,
                                              verdict=verdict, **kwargs)))
        harness.drain()
        self.wires = {EMIT_VLAN: harness.to_vlan,
                      EMIT_SERVICE: harness.to_service,
                      EMIT_UPSTREAM: harness.upstream}
        self.now = 0.0

    def packet(self, step):
        """The step as ``(origin, IPv4Packet)``; None when the flow has
        no such leg."""
        where, index, flags, size, offset = step
        udp, record = self.flows[index % len(self.flows)]
        sport = record.orig.orig_port
        body = b"p" * size
        if where == "inmate":
            src, dst, ports = INMATE, TARGET, (sport, TARGET_PORT)
            seq, ack = CLIENT_ISN + 1 + offset, CS_ISN + 1 + offset
        elif where == "upstream":
            if record.dst_ip is None:
                return None
            src, dst = record.dst_ip, record.nat_global or INMATE
            ports = (record.dst_port, sport)
            seq, ack = DST_ISN + 1 + offset, CLIENT_ISN + 1 + offset
        else:
            if udp:
                return None  # CS datagrams carry shims: controller only
            src, dst, ports = CS, INMATE, (CS_PORT, record.mux_port)
            seq, ack = CS_ISN + 100 + offset, CLIENT_ISN + 1 + offset
        transport = (UDPDatagram(*ports, body) if udp
                     else TCPSegment(*ports, seq, ack, flags, payload=body))
        return where, IPv4Packet(src, dst, transport)

    def frame(self, packet):
        return EthernetFrame(self.harness.mac,
                             MacAddress("02:00:00:00:00:01"), packet,
                             vlan=VLAN)

    def advance(self) -> None:
        self.now += 50.0     # past the 30 s idle timeout
        self.harness.sim.run(until=self.now)

    def result(self) -> dict:
        self.harness.sim.run(until=self.now + 600.0)  # flush the shaper
        router = self.harness.router
        return {
            # A sent packet is never mutated again, so its bytes now
            # are its bytes at emission.
            "wires": {code: [wire if isinstance(wire, bytes)
                             else wire.to_bytes() for wire in log]
                      for code, log in self.wires.items()},
            "counters": dict(router.counters),
            "flows": [(str(r.orig), r.phase.value, r.c2s_packets,
                       r.s2c_packets, r.c2s_bytes, r.s2c_bytes,
                       r.client_fin, r.last_activity)
                      for r in router.flows()],
            "table": router.flowtable.stats(),
        }


def _per_frame(run: _Delivery, script) -> None:
    router = run.harness.router
    for step in script:
        if step[0] == "advance":
            run.advance()
            continue
        made = run.packet(step)
        if made is None:
            continue
        where, packet = made
        if where == "inmate":
            router.inmate_frame(run.frame(packet), VLAN)
        elif where == "upstream":
            router.upstream_packet(packet)
        else:
            router.service_frame(run.frame(packet))


def _frame_batches(run: _Delivery, script, chunks) -> None:
    """Inmate frames pile up and are delivered ``chunk`` at a time
    through inmate_frame_batch; anything else flushes the pile first."""
    router = run.harness.router
    pile = []
    sizes = iter(chunks)
    limit = next(sizes, 1)

    def flush():
        if pile:
            router.inmate_frame_batch(list(pile))
            pile.clear()

    for step in script:
        made = None if step[0] == "advance" else run.packet(step)
        if made is not None and made[0] == "inmate":
            pile.append((run.frame(made[1]), VLAN))
            if len(pile) >= limit:
                flush()
                limit = next(sizes, 1)
            continue
        flush()
        if step[0] == "advance":
            run.advance()
        elif made is not None and made[0] == "upstream":
            router.upstream_packet(made[1])
        elif made is not None:
            router.service_frame(run.frame(made[1]))
    flush()


def _wire_batches(run: _Delivery, script, chunks) -> None:
    """Inmate and upstream packets pile up as WireBatch rows and go
    through ingest_batch; the BatchOutput is put on the wire at once,
    as a caller would."""
    router = run.harness.router
    batch = WireBatch()
    sizes = iter(chunks)
    limit = next(sizes, 1)

    def flush():
        nonlocal batch
        if len(batch):
            out = BatchOutput()
            router.ingest_batch(batch, out)
            for code, _arg, wire in out.serialize():
                # A containment server is reached over the service port.
                run.wires[EMIT_SERVICE if code == EMIT_CS
                          else code].append(wire)
            batch = WireBatch()

    for step in script:
        made = None if step[0] == "advance" else run.packet(step)
        if made is not None and made[0] != "cs":
            if made[0] == "inmate":
                batch.append_packet(made[1], vlan=VLAN)
            else:
                batch.append_packet(made[1], origin=ORIGIN_UPSTREAM)
            if len(batch) >= limit:
                flush()
                limit = next(sizes, 1)
            continue
        flush()
        if step[0] == "advance":
            run.advance()
        elif made is not None:
            router.service_frame(run.frame(made[1]))
    flush()


@settings(max_examples=60, deadline=None)
@given(flows=st.lists(st.sampled_from(FLOW_MENU), min_size=2, max_size=3),
       script=steps,
       chunks=st.lists(st.integers(1, 6), max_size=12))
def test_delivery_modes_agree(flows, script, chunks):
    scalar = _Delivery(flows, idle_timeout=30.0)
    _per_frame(scalar, script)
    expected = scalar.result()

    framed = _Delivery(flows, idle_timeout=30.0)
    _frame_batches(framed, script, chunks)
    assert framed.result() == expected

    columns = _Delivery(flows, idle_timeout=30.0)
    _wire_batches(columns, script, chunks)
    assert columns.result() == expected
