"""Link layer (switch, VLAN isolation, ARP) and infrastructure
services (DHCP, DNS resolver, sinks)."""

from __future__ import annotations

import pytest

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.host import Host
from repro.net.link import Link, Port, PortMode, Switch
from repro.net.packet import EthernetFrame, IPv4Packet, UDPDatagram
from repro.sim.engine import Simulator
from tests.helpers import lan


def attach_host(sim, switch, name, ip, vlan):
    host = Host(sim, name, ip=IPv4Address(ip))
    Link(sim, host.attach_port(), switch.attach_port(access_vlan=vlan))
    return host


class TestLink:
    @pytest.mark.parametrize("kwargs", [
        {"latency": -0.001}, {"latency": float("nan")},
        {"batch_window": -0.005}, {"batch_window": float("nan")},
    ])
    def test_bad_timing_rejected_at_construction(self, kwargs):
        sim = Simulator()
        a, b = Port(object(), "a"), Port(object(), "b")
        with pytest.raises(ValueError):
            Link(sim, a, b, **kwargs)
        # A refused link leaves the ports free.
        assert not a.connected and not b.connected
        Link(sim, a, b, latency=0.0, batch_window=0.0)


class TestSwitch:
    def test_same_vlan_hosts_communicate(self):
        sim = Simulator()
        switch = Switch(sim)
        a = attach_host(sim, switch, "a", "10.0.0.1", 5)
        b = attach_host(sim, switch, "b", "10.0.0.2", 5)
        received = []
        b.udp.bind(9, lambda h, p, d: received.append(d.payload))
        a.udp.sendto(b"hello", b.ip, 9)
        sim.run(until=1.0)
        assert received == [b"hello"]

    def test_vlan_isolation_is_strict(self):
        """Per-inmate VLANs (§5.2): no crosstalk at the switch, ever."""
        sim = Simulator()
        switch = Switch(sim)
        a = attach_host(sim, switch, "a", "10.0.0.1", 5)
        b = attach_host(sim, switch, "b", "10.0.0.2", 6)  # different VLAN
        received = []
        b.udp.bind(9, lambda h, p, d: received.append(d.payload))
        a.udp.sendto(b"leak?", b.ip, 9)
        sim.run(until=2.0)
        assert received == []

    def test_learning_avoids_flooding(self):
        sim = Simulator()
        switch = Switch(sim)
        a = attach_host(sim, switch, "a", "10.0.0.1", 1)
        b = attach_host(sim, switch, "b", "10.0.0.2", 1)
        c = attach_host(sim, switch, "c", "10.0.0.3", 1)
        b.udp.bind(9, lambda h, p, d: None)
        # First exchange teaches the switch both MACs...
        a.udp.sendto(b"x", b.ip, 9)
        sim.run(until=1.0)
        flooded_before = switch.frames_flooded
        a.udp.sendto(b"y", b.ip, 9)
        sim.run(until=2.0)
        # ...so the second unicast is switched, not flooded.
        assert switch.frames_switched > 0
        assert switch.frames_flooded == flooded_before

    def test_trunk_carries_tags(self):
        sim = Simulator()
        switch = Switch(sim)
        a = attach_host(sim, switch, "a", "10.0.0.1", 7)

        captured = []

        class TrunkSniffer:
            def attach_port(self):
                from repro.net.link import Port
                self.port = Port(self, "sniffer")
                return self.port

            def receive_frame(self, frame, port):
                captured.append(frame)

        sniffer = TrunkSniffer()
        Link(sim, sniffer.attach_port(),
             switch.attach_port(mode=PortMode.TRUNK))
        a.udp.sendto(b"probe", IPv4Address("10.0.0.99"), 9)
        sim.run(until=1.0)
        tagged = [f for f in captured if f.vlan == 7]
        assert tagged, "trunk frames must carry the access VLAN tag"


class TestArp:
    def test_hosts_resolve_each_other(self):
        sim, _switch, (a, b) = lan()
        a.udp.sendto(b"x", b.ip, 9)
        sim.run(until=1.0)
        assert b.ip in a.arp_cache_snapshot()
        # b learned a from the request.
        assert a.ip in b.arp_cache_snapshot()

    def test_pending_packets_flush_after_resolution(self):
        sim, _switch, (a, b) = lan()
        received = []
        b.udp.bind(9, lambda h, p, d: received.append(d.payload))
        for i in range(3):
            a.udp.sendto(f"m{i}".encode(), b.ip, 9)
        sim.run(until=1.0)
        assert received == [b"m0", b"m1", b"m2"]


class TestDhcpThroughFarm:
    def test_lease_has_router_and_dns(self):
        from repro.farm import Farm, FarmConfig
        from repro.inmates.images import idle_image

        farm = Farm(FarmConfig(seed=2))
        sub = farm.create_subfarm("dhcp-test")
        inmate = sub.create_inmate(image_factory=idle_image())
        farm.run(until=60)
        host = inmate.host
        assert host.ip is not None
        assert host.gateway_ip == sub.gateway_ip
        assert host.dns_server == sub.dns_ip
        assert sub.router.counters["dhcp_leases"] >= 1

    def test_reverted_inmate_reacquires_address(self):
        from repro.farm import Farm, FarmConfig
        from repro.inmates.images import idle_image

        farm = Farm(FarmConfig(seed=2))
        sub = farm.create_subfarm("dhcp-test")
        inmate = sub.create_inmate(image_factory=idle_image())
        farm.run(until=60)
        first_host = inmate.host
        inmate.revert()
        farm.run(until=200)
        assert inmate.host is not first_host
        assert inmate.host.ip is not None
        # Same VLAN keeps the same internal address binding.
        assert inmate.host.ip == first_host.ip


class TestResolverThroughFarm:
    def test_recursion_to_world_authority(self):
        from repro.farm import Farm, FarmConfig
        from repro.world.builder import ExternalWorld
        from repro.net.dns import StubResolverClient

        farm = Farm(FarmConfig(seed=3))
        sub = farm.create_subfarm("dns-test")
        world = ExternalWorld(farm)
        world.dns.add_a("cnc.example", IPv4Address("198.51.100.77"))

        # A service host inside the subfarm queries the resolver.
        probe = sub.add_service_host("probe")
        results = []
        client = StubResolverClient(probe, sub.dns_ip)
        client.resolve("cnc.example", lambda recs: results.append(recs))
        farm.run(until=10)
        assert results and results[0]
        assert str(results[0][0].address) == "198.51.100.77"
        assert sub.resolver.recursions == 1

    def test_cache_prevents_second_recursion(self):
        from repro.farm import Farm, FarmConfig
        from repro.world.builder import ExternalWorld
        from repro.net.dns import StubResolverClient

        farm = Farm(FarmConfig(seed=3))
        sub = farm.create_subfarm("dns-test")
        world = ExternalWorld(farm)
        world.dns.add_a("cnc.example", IPv4Address("198.51.100.77"))
        probe = sub.add_service_host("probe")
        client = StubResolverClient(probe, sub.dns_ip)
        results = []
        client.resolve("cnc.example", lambda recs: results.append(recs))
        farm.run(until=10)
        client.resolve("cnc.example", lambda recs: results.append(recs))
        farm.run(until=20)
        assert len(results) == 2 and results[1]
        assert sub.resolver.recursions == 1

    def test_nxdomain_for_unknown_names(self):
        from repro.farm import Farm, FarmConfig
        from repro.world.builder import ExternalWorld
        from repro.net.dns import StubResolverClient

        farm = Farm(FarmConfig(seed=3))
        sub = farm.create_subfarm("dns-test")
        ExternalWorld(farm)
        probe = sub.add_service_host("probe")
        client = StubResolverClient(probe, sub.dns_ip)
        results = []
        client.resolve("no-such-host.example",
                       lambda recs: results.append(recs))
        farm.run(until=10)
        assert results == [[]]


class TestCatchAllSink:
    def test_accepts_any_port_and_any_destination(self):
        sim = Simulator()
        switch = Switch(sim)
        client = attach_host(sim, switch, "client", "10.0.0.1", 1)
        sink_host = attach_host(sim, switch, "sink", "10.0.0.2", 1)
        sink_host.accept_any_ip = True
        from repro.services.sink import CatchAllSink

        sink = CatchAllSink(sink_host)
        for port in (25, 80, 6667, 31337):
            conn = client.tcp.connect(sink_host.ip, port)
            conn.on_established = (
                lambda c, p=port: c.send(f"probe {p}".encode()))
        sim.run(until=5.0)
        assert sink.connections_accepted == 4
        assert sorted(sink.by_destination_port()) == [25, 80, 6667, 31337]
        assert sink.payloads_for_port(80) == [b"probe 80"]
