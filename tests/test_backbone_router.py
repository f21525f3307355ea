"""The simulated Internet backbone: LPM forwarding, TTL, proxy ARP."""

from __future__ import annotations

from types import SimpleNamespace

from repro.net.addresses import IPv4Address, IPv4Network, MacAddress
from repro.net.host import Host
from repro.net.link import Link, Port
from repro.net.packet import IPv4Packet, UDPDatagram
from repro.net.router import Router
from repro.sim.engine import Simulator


def backbone_with_hosts(count=2, seed=5):
    sim = Simulator(seed=seed)
    backbone = Router(sim)
    hosts = []
    for i in range(count):
        host = Host(sim, f"x{i}", ip=IPv4Address(f"203.0.113.{i + 10}"))
        backbone.attach_host(host, latency=0.001)
        hosts.append(host)
    return sim, backbone, hosts


class TestBackbone:
    def test_hosts_on_different_ports_communicate(self):
        sim, backbone, (a, b) = backbone_with_hosts()
        received = []
        b.udp.bind(9, lambda h, p, d: received.append(d.payload))
        a.udp.sendto(b"across the backbone", b.ip, 9)
        sim.run(until=1.0)
        assert received == [b"across the backbone"]
        assert backbone.packets_forwarded >= 1

    def test_longest_prefix_match_wins(self):
        sim, backbone, (a, b) = backbone_with_hosts()
        # A covering /24 pointing at a's port, plus b's /32 (installed
        # by attach_host).  Traffic for b must follow the /32.
        backbone.add_route(IPv4Network("203.0.113.0/24"),
                           backbone.ports[0])
        received = []
        b.udp.bind(9, lambda h, p, d: received.append(d.payload))
        a.udp.sendto(b"lpm", b.ip, 9)
        sim.run(until=1.0)
        assert received == [b"lpm"]

    def test_unroutable_packets_counted(self):
        sim, backbone, (a, b) = backbone_with_hosts()
        a.udp.sendto(b"void", IPv4Address("192.0.2.1"), 9)
        sim.run(until=1.0)
        assert backbone.packets_dropped >= 1

    def test_ttl_decrements(self):
        sim, backbone, (a, b) = backbone_with_hosts()
        seen_ttls = []

        original = b.receive_frame

        def spy(frame, port):
            payload = frame.payload
            if isinstance(payload, IPv4Packet):
                seen_ttls.append(payload.ttl)
            original(frame, port)

        b.receive_frame = spy
        a.udp.sendto(b"ttl", b.ip, 9)
        sim.run(until=1.0)
        assert seen_ttls and seen_ttls[0] == 63  # 64 minus one hop

    def test_expired_ttl_dropped(self):
        sim, backbone, (a, b) = backbone_with_hosts()
        packet = IPv4Packet(a.ip, b.ip, UDPDatagram(1, 9, b"dead"), ttl=1)
        received = []
        b.udp.bind(9, lambda h, p, d: received.append(d.payload))
        a.send_ip(packet)
        sim.run(until=1.0)
        assert received == []
        assert backbone.packets_dropped >= 1

    def test_proxy_arp_answers_for_anyone(self):
        sim, backbone, (a, b) = backbone_with_hosts()
        # a ARPs for its gateway (an address nobody owns): the router
        # must answer with its own MAC so a can send off-link.
        a.udp.sendto(b"x", IPv4Address("198.51.100.99"), 9)
        sim.run(until=1.0)
        assert a.gateway_ip in a.arp_cache_snapshot()
        assert a.arp_cache_snapshot()[a.gateway_ip] == backbone.mac

    def test_hairpin_is_dropped_and_counted(self):
        sim, backbone, (a, b) = backbone_with_hosts()
        # A destination routed back out of the port it arrives on.
        backbone.add_route(IPv4Network("198.51.100.7/32"), backbone.ports[0])
        a.udp.sendto(b"boomerang", IPv4Address("198.51.100.7"), 9)
        sim.run(until=1.0)
        assert (backbone.packets_dropped, backbone.packets_forwarded) == (1, 0)
        assert a.packets_received == b.packets_received == 0

    def test_unknown_neighbour_gets_a_broadcast_destination(self):
        sim, backbone, (a, b) = backbone_with_hosts()
        # A port with a route but no neighbour MAC: no host attached
        # through attach_host, and nothing behind it ever ARPs.
        seen = []
        silent = Port(SimpleNamespace(
            receive_frame=lambda frame, port: seen.append(frame)), "silent")
        out = backbone.attach_port()
        Link(sim, silent, out, latency=0.001)
        backbone.add_route(IPv4Network("192.0.2.0/24"), out)
        a.udp.sendto(b"anyone", IPv4Address("192.0.2.5"), 9)
        sim.run(until=1.0)
        (frame,) = seen
        assert frame.dst == MacAddress.broadcast()
        assert frame.src == backbone.mac
        assert frame.payload.ttl == 63
        assert frame.payload.udp.payload == b"anyone"
        assert backbone.packets_forwarded == 1

    def test_forward_takes_the_receive_path(self):
        sim, backbone, (a, b) = backbone_with_hosts()
        received = []
        b.udp.bind(9, lambda h, p, d: received.append(p.ttl))
        packet = IPv4Packet(a.ip, b.ip, UDPDatagram(1, 9, b"direct"), ttl=5)
        backbone.forward(packet)
        backbone.forward(packet, arrived_on=backbone.ports[1])  # hairpin
        sim.run(until=1.0)
        assert received == [4] and packet.ttl == 5
        assert (backbone.packets_forwarded, backbone.packets_dropped) == (1, 1)
