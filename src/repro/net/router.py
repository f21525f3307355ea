"""A generic IP router used as the simulated Internet backbone.

The external universe — C&C servers, victim mail exchangers, FTP
servers, blacklist infrastructure — hangs off one of these.  GQ's
gateway plugs its upstream interface into the same router, with the
farm's globally routable /24s routed toward it (§6.7).

The router proxy-ARPs on every port (it is everyone's default
gateway), performs longest-prefix-match forwarding, and decrements
TTL.  It is intentionally simple: the paper's system does not depend
on backbone behaviour beyond packets getting where they are addressed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.addresses import IPv4Address, IPv4Network, MacAddress
from repro.net.arp import ETHERTYPE_ARP, OP_REQUEST, ArpMessage
from repro.net.host import Host
from repro.net.link import Link, Port
from repro.net.packet import ETHERTYPE_IPV4, EthernetFrame, IPv4Packet
from repro.sim.engine import Simulator

_new = object.__new__
_BROADCAST = MacAddress.broadcast()


class Router:
    """Longest-prefix-match IP router with proxy ARP."""

    def __init__(self, sim: Simulator, name: str = "internet") -> None:
        self.sim = sim
        self.name = name
        self.mac = MacAddress(0x02_FE_00_00_00_01)
        self.ports: List[Port] = []
        # (mask, network, port), longest prefix (largest mask) first.
        self._routes: List[Tuple[int, int, Port]] = []
        self._neighbor_macs: Dict[Port, MacAddress] = {}
        self.packets_forwarded = 0
        self.packets_dropped = 0

    def attach_port(self) -> Port:
        port = Port(self, name=f"{self.name}.p{len(self.ports)}")
        self.ports.append(port)
        return port

    def add_route(self, network: IPv4Network, port: Port) -> None:
        self._routes.append((network.mask, network.network, port))
        # Keep longest prefixes first for LPM.
        self._routes.sort(key=lambda entry: -entry[0])

    def attach_host(self, host: Host, latency: float = 0.01,
                    gateway_ip: Optional[IPv4Address] = None) -> Port:
        """Wire a statically addressed host to the backbone.

        Routes the host's /32 toward it and points the host's default
        gateway at us (any address works: we proxy-ARP).
        """
        if host.ip is None:
            raise ValueError("backbone hosts need a static IP")
        port = self.attach_port()
        Link(self.sim, host.attach_port(), port, latency)
        self.add_route(IPv4Network(f"{host.ip}/32"), port)
        self._neighbor_macs[port] = host.mac
        if gateway_ip is None:
            # A same-subnet gateway address; value is arbitrary thanks to
            # proxy ARP, but must differ from the host's own.
            base = (host.ip.value & 0xFFFFFF00) + 1
            if base == host.ip.value:
                base += 1
            gateway_ip = IPv4Address(base)
        host.configure(host.ip, gateway_ip=gateway_ip)
        return port

    def attach_gateway(self, port_owner_mac: MacAddress, networks: List[IPv4Network],
                       peer_port: Port, latency: float = 0.01) -> Port:
        """Wire the farm gateway's upstream interface to the backbone."""
        port = self.attach_port()
        Link(self.sim, peer_port, port, latency)
        for network in networks:
            self.add_route(network, port)
        self._neighbor_macs[port] = MacAddress(port_owner_mac)
        return port

    # ------------------------------------------------------------------
    def receive_frame(self, frame: EthernetFrame, port: Port) -> None:
        if frame.ethertype == ETHERTYPE_ARP:
            self._handle_arp(frame, port)
            return
        packet = frame.payload
        if frame.ethertype != ETHERTYPE_IPV4 or not isinstance(
            packet, IPv4Packet
        ):
            return
        # The whole forward in this one frame: the LPM walk, the TTL
        # rewrite and both headers built by slot fill (the packet's
        # fields are already canonical, and so are our MAC and the
        # neighbours').  The sender may still hold (and a trace may
        # share) this packet: forward a header rebuild, never decrement
        # in place.
        value = packet.dst.value
        for mask, network, out in self._routes:
            if value & mask == network:
                break
        else:
            out = None
        if out is None or out is port or packet.ttl <= 1:
            self.packets_dropped += 1
            return
        clone = _new(IPv4Packet)
        clone.src = packet.src
        clone.dst = packet.dst
        clone.proto = packet.proto
        clone.ttl = packet.ttl - 1
        clone.ident = packet.ident
        clone.payload = packet.payload
        forwarded = _new(EthernetFrame)
        forwarded.src = self.mac
        forwarded.dst = self._neighbor_macs.get(out, _BROADCAST)
        forwarded.vlan = None
        forwarded.ethertype = ETHERTYPE_IPV4
        forwarded.payload = clone
        self.packets_forwarded += 1
        out.send(forwarded)

    def forward(self, packet: IPv4Packet, arrived_on: Optional[Port] = None) -> None:
        """Route ``packet`` as if it had arrived on ``arrived_on`` (or
        from the router itself), through :meth:`receive_frame`'s one
        forwarding path."""
        self.receive_frame(EthernetFrame(self.mac, self.mac, packet),
                           arrived_on)

    def _handle_arp(self, frame: EthernetFrame, port: Port) -> None:
        try:
            message = ArpMessage.from_bytes(bytes(frame.payload))
        except ValueError:
            return
        if message.sender_ip.value != 0:
            self._neighbor_macs.setdefault(port, message.sender_mac)
        if message.op != OP_REQUEST:
            return
        # Proxy ARP: we answer for any address that is not the asker's.
        if message.target_ip == message.sender_ip:
            return
        reply = ArpMessage.reply(
            self.mac, message.target_ip, message.sender_mac, message.sender_ip
        )
        port.send(
            EthernetFrame(self.mac, message.sender_mac, reply.to_bytes(),
                          ethertype=ETHERTYPE_ARP)
        )

    def __repr__(self) -> str:
        return f"<Router {self.name} ports={len(self.ports)} routes={len(self._routes)}>"
