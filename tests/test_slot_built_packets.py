"""Packets built by slot fill on the forwarding path, against the public
constructors.

The hot sites — ``Host.send_ip``'s ARP hit, ``TcpConnection._emit``,
the switch's egress frames, the backbone router's forward, the three
gateway egresses and the flow-table executor — build their
``EthernetFrame`` / ``IPv4Packet`` / ``TCPSegment`` without calling a
constructor (docs/PERFORMANCE.md, "The per-hop kernel").  Each case
here drives one site and checks that what it built equals what the
constructors build from the same inputs: field by field, exact types
included, and on the wire.  The per-packet checks those constructors
made live where the value is configured; the last section holds them
there.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.gateway.bridge import LearningBridge
from repro.gateway.egress import ServiceEgress, UpstreamEgress, VlanEgress
from repro.gateway.flowtable import (
    ACT_TCP_C2CS,
    ACT_TCP_C2D,
    ACT_TCP_D2C,
    Rewrite,
    apply,
)
from repro.net.addresses import IPv4Address, IPv4Network, MacAddress
from repro.net.arp import ETHERTYPE_ARP, ArpMessage
from repro.net.host import Host
from repro.net.link import Link, Port, PortMode, Switch, SwitchPortConfig
from repro.net.packet import (
    ACK,
    ETHERTYPE_IPV4,
    PSH,
    PROTO_TCP,
    SYN,
    EthernetFrame,
    IPv4Packet,
    TCPSegment,
    UDPDatagram,
)
from repro.net.router import Router
from repro.net.tcp import TcpConnection
from repro.sim.engine import Simulator
from tests.helpers import CaptureEgress

MASK = 0xFFFFFFFF
BROADCAST = MacAddress.broadcast()
MAC_A = MacAddress("02:00:00:00:0a:01")
MAC_B = MacAddress("02:00:00:00:0b:02")
IP_A = IPv4Address("10.0.0.1")
IP_B = IPv4Address("10.0.0.2")
IP_FAR = IPv4Address("203.0.113.50")


def _segment(seq=1000, ack=2000, flags=ACK | PSH, payload=b"slot"):
    return TCPSegment(40000, 80, seq, ack, flags, 4096, payload)


def _packet(src=IP_A, dst=IP_B, ttl=64, ident=7):
    return IPv4Packet(src, dst, _segment(), ttl=ttl, ident=ident)


def assert_same(built, reference) -> None:
    """``built`` equals ``reference`` field by field, each field of the
    exact same type, recursing into payloads; and on the wire."""
    assert type(built) is type(reference)
    for name in type(reference).__slots__:
        mine, theirs = getattr(built, name), getattr(reference, name)
        assert type(mine) is type(theirs), name
        if name == "payload" and isinstance(
                theirs, (IPv4Packet, TCPSegment, UDPDatagram)):
            assert_same(mine, theirs)
        else:
            assert mine == theirs, name
    if isinstance(reference, TCPSegment):
        assert built.to_bytes(IP_A, IP_B) == reference.to_bytes(IP_A, IP_B)
    else:
        assert built.to_bytes() == reference.to_bytes()


class _Recorder:
    """A device that keeps every frame delivered to it."""

    def __init__(self, name: str = "recorder") -> None:
        self.port = Port(self, name)
        self.frames = []

    def receive_frame(self, frame, port) -> None:
        self.frames.append(frame)


# ----------------------------------------------------------------------
# One function per site: each returns [(built, reference), ...]
# ----------------------------------------------------------------------
def _host_send_ip():
    sim = Simulator()
    host = Host(sim, "h", ip=IP_A)
    peer = _Recorder()
    Link(sim, host.port, peer.port)
    hello = ArpMessage.reply(MAC_B, IP_B, host.mac, IP_A)
    host.receive_frame(EthernetFrame(MAC_B, host.mac, hello.to_bytes(),
                                     ethertype=ETHERTYPE_ARP), host.port)
    packet = _packet()
    host.send_ip(packet)
    sim.run()
    (frame,) = peer.frames
    return [(frame, EthernetFrame(host.mac, MAC_B, packet))]


def _tcp_emit():
    host = Host(Simulator(), "h", ip=IP_A)
    sent = []
    host.send_ip = sent.append
    conn = TcpConnection(host, IP_A, 40000, IP_B, 80)
    calls = [(ACK | PSH, 1000, 2000, b"data"),
             (SYN, MASK, 0, b""),
             # Out of range: the constructor masked them, so must _emit.
             (ACK, (1 << 32) + 5, (3 << 32) + 9, b"")]
    pairs = []
    for flags, seq, ack, payload in calls:
        conn._emit(flags, seq, ack, payload)
        pairs.append((sent[-1], IPv4Packet(
            IP_A, IP_B, TCPSegment(40000, 80, seq, ack, flags, 65535,
                                   payload), PROTO_TCP)))
    return pairs


def _switch(in_mode, out_modes, known):
    """One frame into a switch port of mode ``in_mode`` (VLAN 7), out
    to one port per ``out_modes`` entry — switched to the first if
    ``known``, else flooded."""
    sim = Simulator()
    switch = Switch(sim)
    source = _Recorder()
    in_port = switch.attach_port(mode=in_mode, access_vlan=7)
    Link(sim, source.port, in_port)
    sinks = []
    for index, mode in enumerate(out_modes):
        sink = _Recorder(f"sink{index}")
        Link(sim, sink.port, switch.attach_port(mode=mode, access_vlan=7))
        sinks.append(sink)
    if known:   # teach the switch that MAC_B is behind the first sink
        teach_tag = 7 if out_modes[0] is PortMode.TRUNK else None
        switch.receive_frame(EthernetFrame(MAC_B, MAC_A, b"hello",
                                           teach_tag), switch.ports[1])
        sim.run()
        for recorder in (source, *sinks):
            recorder.frames.clear()
    tag = 7 if in_mode is PortMode.TRUNK else None
    frame = EthernetFrame(MAC_A, MAC_B, _packet(), tag)
    switch.receive_frame(frame, in_port)
    sim.run()
    pairs = []
    for sink, mode in zip(sinks, out_modes):
        for built in sink.frames:
            pairs.append((built, EthernetFrame(
                frame.src, frame.dst, frame.payload,
                None if mode is PortMode.ACCESS else 7, frame.ethertype)))
    assert len(pairs) == (1 if known else len(out_modes))
    return pairs


def _backbone(known_neighbour):
    sim = Simulator()
    backbone = Router(sim)
    far = Host(sim, "far", ip=IP_FAR)
    backbone.attach_host(far, latency=0.001)
    arrival = backbone.attach_port()
    source = _Recorder()
    Link(sim, source.port, arrival)
    if known_neighbour:
        out = backbone.ports[0]
        dst_mac = far.mac
    else:
        sink = _Recorder()
        out = backbone.attach_port()
        Link(sim, sink.port, out)
        backbone.add_route(IPv4Network("198.51.100.0/24"), out)
        dst_mac = BROADCAST
    packet = _packet(src=IP_A, dst=IP_FAR if known_neighbour
                     else IPv4Address("198.51.100.9"), ttl=17, ident=4321)
    sent = []
    out.send = sent.append
    backbone.receive_frame(EthernetFrame(MAC_A, backbone.mac, packet),
                           arrival)
    (frame,) = sent
    reference_packet = IPv4Packet(packet.src, packet.dst, packet.payload,
                                  packet.proto, packet.ttl - 1,
                                  packet.ident)
    return [(frame.payload, reference_packet),
            (frame, EthernetFrame(backbone.mac, dst_mac, reference_packet,
                                  ethertype=ETHERTYPE_IPV4))]


class _Trace:
    def __init__(self) -> None:
        self.captured = []

    def capture(self, now, frame, point) -> None:
        self.captured.append(frame)


class _SendLog:
    def __init__(self) -> None:
        self.frames = []

    def send(self, frame) -> None:
        self.frames.append(frame)


def _upstream_egress():
    port, trace = _SendLog(), _Trace()
    packet = _packet()
    UpstreamEgress(Simulator(), port, MAC_A, trace, []).send(packet)
    (frame,) = port.frames
    assert trace.captured == [frame]
    return [(frame, EthernetFrame(MAC_A, BROADCAST, packet, None,
                                  ETHERTYPE_IPV4))]


def _service_egress():
    port, trace = _SendLog(), _Trace()
    packet = _packet()
    ServiceEgress(Simulator(), port, MAC_A, MAC_B, trace).send(packet)
    (frame,) = port.frames
    assert trace.captured == [frame]
    return [(frame, EthernetFrame(MAC_A, MAC_B, packet, None,
                                  ETHERTYPE_IPV4))]


def _vlan_egress(learned):
    port, trace = _SendLog(), _Trace()
    bridge = LearningBridge()
    if learned:
        bridge.learn(12, MAC_B, 0.0)
    router = SimpleNamespace(bridge=bridge, trace=trace)
    gateway = SimpleNamespace(floods=0)
    packet = _packet()
    VlanEgress(Simulator(), port, MAC_A, 12, router, gateway).send(packet)
    (frame,) = port.frames
    assert trace.captured == [frame]
    assert gateway.floods == (0 if learned else 1)
    return [(frame, EthernetFrame(MAC_A, MAC_B if learned else BROADCAST,
                                  packet, 12, ETHERTYPE_IPV4))]


def _flowtable_apply(kind, seq_delta, ack_delta, flags):
    record = SimpleNamespace(last_activity=0.0, c2s_packets=0, c2s_bytes=0,
                             s2c_packets=0, s2c_bytes=0, client_fin=False,
                             closing=None)
    router = SimpleNamespace(sim=SimpleNamespace(now=3.0),
                             counters=Counter(), _legs=None)
    log = []
    row = Rewrite(None, record, 0, kind, 55555, 8080,
                  IPv4Address("198.18.0.9"), IPv4Address("10.3.0.1"),
                  CaptureEgress(log), seq_delta, ack_delta)
    transport = TCPSegment(40000, 80, MASK - 2, 77, flags, 1234, b"apply")
    apply(router, row, IPv4Packet(IP_A, IP_B, transport), packet_in=False)
    (built,) = log
    if flags & ACK:
        ack = transport.ack + ack_delta
    else:
        ack = 0 if row.spec.ack_zero else transport.ack
    reference = IPv4Packet(
        row.src_ip, row.dst_ip,
        TCPSegment(55555, 8080, transport.seq + seq_delta, ack, flags,
                   transport.window, transport.payload))
    return [(built, reference)]


SITES = {
    "host-send-ip": _host_send_ip,
    "tcp-emit": _tcp_emit,
    "switch-access-to-trunk": lambda: _switch(
        PortMode.ACCESS, [PortMode.TRUNK], known=True),
    "switch-trunk-to-access": lambda: _switch(
        PortMode.TRUNK, [PortMode.ACCESS], known=True),
    "switch-flood-tagged-and-untagged": lambda: _switch(
        PortMode.ACCESS, [PortMode.TRUNK, PortMode.ACCESS], known=False),
    "backbone-ttl-clone": lambda: _backbone(known_neighbour=True),
    "backbone-unknown-neighbour": lambda: _backbone(known_neighbour=False),
    "egress-upstream": _upstream_egress,
    "egress-service": _service_egress,
    "egress-vlan-learned": lambda: _vlan_egress(learned=True),
    "egress-vlan-flooded": lambda: _vlan_egress(learned=False),
    "flowtable-c2d-shifted": lambda: _flowtable_apply(
        ACT_TCP_C2D, 10, (1 << 32) - 3, ACK | PSH),
    "flowtable-d2c-unshifted": lambda: _flowtable_apply(
        ACT_TCP_D2C, 0, 0, ACK),
    "flowtable-c2cs-no-ack": lambda: _flowtable_apply(
        ACT_TCP_C2CS, 5, 5, PSH),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_slot_built_packet_equals_the_constructors(site):
    pairs = SITES[site]()
    assert pairs
    for built, reference in pairs:
        assert_same(built, reference)


def test_the_comparison_bites():
    """A clone that kept the TTL, or a frame that lost its tag, is not
    the constructors' packet."""
    packet = _packet(ttl=17)
    stale = IPv4Packet(packet.src, packet.dst, packet.payload,
                       packet.proto, 17, packet.ident)
    with pytest.raises(AssertionError):
        assert_same(stale, IPv4Packet(packet.src, packet.dst,
                                      packet.payload, packet.proto, 16,
                                      packet.ident))
    with pytest.raises(AssertionError):
        assert_same(EthernetFrame(MAC_A, MAC_B, packet),
                    EthernetFrame(MAC_A, MAC_B, packet, 7))
    # An int subclass with the same value is still the wrong type.
    class Tagged(int):
        pass

    retagged = EthernetFrame(MAC_A, MAC_B, packet, 7)
    retagged.vlan = Tagged(7)
    with pytest.raises(AssertionError):
        assert_same(retagged, EthernetFrame(MAC_A, MAC_B, packet, 7))


# ----------------------------------------------------------------------
# The VLAN check, moved from each frame to where a VLAN is configured
# ----------------------------------------------------------------------
@pytest.mark.parametrize("vlan", [0, 4095, 5000, -1])
def test_switch_port_refuses_an_out_of_range_access_vlan(vlan):
    switch = Switch(Simulator())
    with pytest.raises(ValueError, match="802.1Q range"):
        switch.attach_port(access_vlan=vlan)
    with pytest.raises(ValueError, match="802.1Q range"):
        SwitchPortConfig(PortMode.ACCESS, access_vlan=vlan)
    assert switch.ports == []


@pytest.mark.parametrize("vlans", [{0, 9999}, {7, 4095}, {0}])
def test_switch_port_refuses_an_out_of_range_trunk_vlan(vlans):
    switch = Switch(Simulator())
    with pytest.raises(ValueError, match="802.1Q range"):
        switch.attach_port(mode=PortMode.TRUNK, trunk_vlans=vlans)
    assert switch.ports == []


def test_switch_port_accepts_the_whole_range():
    config = SwitchPortConfig(PortMode.TRUNK, access_vlan=4094,
                              trunk_vlans={1, 4094})
    assert config.trunk_vlans == frozenset({1, 4094})
    assert config.carries(1) and config.carries(4094)
    assert not config.carries(2)
    assert SwitchPortConfig(PortMode.TRUNK).trunk_vlans is None


@pytest.mark.parametrize("vlan", [0, 4095, 5000])
def test_vlan_egress_refuses_an_out_of_range_vlan(vlan):
    with pytest.raises(ValueError, match="802.1Q range"):
        VlanEgress(Simulator(), _SendLog(), MAC_A, vlan)


def test_a_bad_access_vlan_no_longer_reaches_the_event_loop():
    """It used to be accepted here and raise inside ``run()``, on the
    first frame the switch tagged for a trunk."""
    sim = Simulator()
    switch = Switch(sim)
    with pytest.raises(ValueError):
        switch.attach_port(access_vlan=5000)
    trunk = _Recorder()
    Link(sim, trunk.port, switch.attach_port(mode=PortMode.TRUNK))
    access = switch.attach_port(access_vlan=4094)
    switch.receive_frame(EthernetFrame(MAC_A, BROADCAST, b"x"), access)
    sim.run()
    (frame,) = trunk.frames
    assert frame.vlan == 4094
