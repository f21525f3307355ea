"""Simulated hosts: one NIC, an ARP-backed IPv4 layer, TCP and UDP.

A :class:`Host` is the unit everything runs on — inmates, sink servers,
containment servers, external C&C servers, and victim mail exchangers
are all hosts with application code attached through the socket-like
APIs of :class:`~repro.net.tcp.TcpStack` and :class:`UdpStack`.

Addressing may be static (external-world servers) or dynamic (inmates
acquire their RFC 1918 address via the subfarm's DHCP service at boot,
reproducing the "boot-time chatter" the paper's NAT keys on).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.arp import ETHERTYPE_ARP, OP_REQUEST, ArpMessage
from repro.net.link import Port
from repro.net.packet import (
    ETHERTYPE_IPV4,
    EthernetFrame,
    IPv4Packet,
    PROTO_TCP,
    PROTO_UDP,
    UDPDatagram,
)
from repro.net.tcp import TcpStack
from repro.sim.engine import Simulator

BROADCAST_IP = IPv4Address("255.255.255.255")

UdpHandler = Callable[["Host", IPv4Packet, UDPDatagram], None]


class UdpStack:
    """Per-host UDP: bound ports and a sendto-style API."""

    def __init__(self, host: "Host") -> None:
        self.host = host
        self._handlers: Dict[int, UdpHandler] = {}
        self._any_handler: Optional[UdpHandler] = None
        self._next_ephemeral = 1024
        self.datagrams_sent = 0
        self.datagrams_received = 0

    def bind(self, port: int, handler: UdpHandler) -> None:
        if port in self._handlers:
            raise RuntimeError(f"UDP port {port} already bound")
        self._handlers[port] = handler

    def bind_any(self, handler: UdpHandler) -> None:
        """Wildcard bind: receive datagrams for any unbound port."""
        self._any_handler = handler

    def unbind(self, port: int) -> None:
        self._handlers.pop(port, None)

    def allocate_port(self) -> int:
        for _ in range(64512):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > 65535:
                self._next_ephemeral = 1024
            if port not in self._handlers:
                return port
        raise RuntimeError("UDP ephemeral port space exhausted")

    def sendto(
        self,
        payload: bytes,
        dst_ip: IPv4Address,
        dst_port: int,
        src_port: Optional[int] = None,
    ) -> int:
        """Send a datagram; returns the source port used."""
        if src_port is None:
            src_port = self.allocate_port()
        src_ip = self.host.ip if self.host.ip is not None else IPv4Address(0)
        datagram = UDPDatagram(src_port, dst_port, payload)
        self.datagrams_sent += 1
        self.host.send_ip(IPv4Packet(src_ip, dst_ip, datagram))
        return src_port

    def packet_arrived(self, packet: IPv4Packet) -> None:
        datagram = packet.udp
        handler = self._handlers.get(datagram.dport) or self._any_handler
        if handler is not None:
            self.datagrams_received += 1
            handler(self.host, packet, datagram)


class Host:
    """A simulated machine with one network interface."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip: Optional[IPv4Address] = None,
        prefix_len: int = 24,
        gateway_ip: Optional[IPv4Address] = None,
        mac: Optional[MacAddress] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.ip = IPv4Address(ip) if ip is not None else None
        self.prefix_len = prefix_len
        self.gateway_ip = IPv4Address(gateway_ip) if gateway_ip is not None else None
        self._bind_subnet()
        self.mac = mac if mac is not None else self._derive_mac(name)
        self.rng = sim.rng(f"host/{name}")

        self.port = Port(self, name=f"{name}.eth0")
        self.tcp = TcpStack(self)
        self.udp = UdpStack(self)

        # Both keyed on the next hop's 32-bit value: an int hashes in C.
        self._arp_cache: Dict[int, MacAddress] = {}
        self._arp_pending: Dict[int, List[IPv4Packet]] = {}

        # Sink servers accept traffic for *any* destination address:
        # reflected flows arrive still addressed to their original
        # (spoofed) destination, which is how the SMTP sink learns what
        # real server to grab a banner from.
        self.accept_any_ip = False

        self.packets_sent = 0
        self.packets_received = 0
        self.packets_unroutable = 0

    @staticmethod
    def _derive_mac(name: str) -> MacAddress:
        # A stable digest, not salted hash(): inmate-side pcaps must
        # not differ per process.
        digest = int.from_bytes(
            hashlib.sha256(name.encode()).digest()[:5], "big")
        return MacAddress(0x02_00_00_00_00_00 | digest)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_port(self) -> Port:
        return self.port

    def configure(
        self,
        ip: IPv4Address,
        prefix_len: Optional[int] = None,
        gateway_ip: Optional[IPv4Address] = None,
    ) -> None:
        """Set the interface address (statically or from DHCP)."""
        self.ip = IPv4Address(ip)
        if prefix_len is not None:
            self.prefix_len = prefix_len
        if gateway_ip is not None:
            self.gateway_ip = IPv4Address(gateway_ip)
        self._bind_subnet()

    # ------------------------------------------------------------------
    # IPv4 send path
    # ------------------------------------------------------------------
    def _bind_subnet(self) -> None:
        """Fix the on-link test's mask and subnet when the address
        changes, not per packet sent."""
        self._mask = (0xFFFFFFFF << (32 - self.prefix_len)) & 0xFFFFFFFF
        self._subnet = (None if self.ip is None
                        else self.ip.value & self._mask)

    def send_ip(self, packet: IPv4Packet) -> None:
        """Send an IPv4 packet, resolving the next hop via ARP.

        Off-link destinations without a default gateway are silently
        unroutable (counted), like ENETUNREACH on a real host: the
        application just never hears back.
        """
        self.packets_sent += 1
        next_hop = packet.dst
        if next_hop.value == 0xFFFFFFFF:
            self._transmit(packet, MacAddress.broadcast())
            return
        subnet = self._subnet
        # Unconfigured hosts only broadcast anyway: everything is on-link.
        if subnet is not None and next_hop.value & self._mask != subnet:
            next_hop = self.gateway_ip
            if next_hop is None:  # no route (ENETUNREACH)
                self.packets_unroutable += 1
                return
        mac = self._arp_cache.get(next_hop.value)
        if mac is not None:
            self.port.send(EthernetFrame(self.mac, mac, packet))
            return
        queue = self._arp_pending.setdefault(next_hop.value, [])
        queue.append(packet)
        if len(queue) == 1:
            self._send_arp_request(next_hop)

    def _transmit(self, packet: IPv4Packet, dst_mac: MacAddress) -> None:
        self.port.send(EthernetFrame(self.mac, dst_mac, packet))

    def _send_arp_request(self, target_ip: IPv4Address) -> None:
        sender_ip = self.ip if self.ip is not None else IPv4Address(0)
        message = ArpMessage.request(self.mac, sender_ip, target_ip)
        frame = EthernetFrame(
            self.mac,
            MacAddress.broadcast(),
            message.to_bytes(),
            ethertype=ETHERTYPE_ARP,
        )
        self.port.send(frame)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive_frame(self, frame: EthernetFrame, port: Port) -> None:
        # Addresses are interned, so unicast to this host is normally an
        # identity hit; .value settles the rest without a Python call.
        dst_mac = frame.dst
        if (dst_mac is not self.mac and dst_mac.value != self.mac.value
                and dst_mac.value != MacAddress.BROADCAST_VALUE):
            return
        if frame.ethertype == ETHERTYPE_ARP:
            self._handle_arp(frame)
            return
        packet = frame.payload
        if frame.ethertype != ETHERTYPE_IPV4 or not isinstance(
                packet, IPv4Packet):
            return
        # An unconfigured host takes anything addressed to its MAC
        # (DHCP offers arrive as unicast).
        dst, ip = packet.dst, self.ip
        if (dst is not ip and ip is not None and dst.value != ip.value
                and dst.value != 0xFFFFFFFF and not self.accept_any_ip):
            return
        self.packets_received += 1
        if packet.proto == PROTO_TCP:
            self.tcp.packet_arrived(packet)
        elif packet.proto == PROTO_UDP:
            self.udp.packet_arrived(packet)

    def _handle_arp(self, frame: EthernetFrame) -> None:
        try:
            message = ArpMessage.from_bytes(bytes(frame.payload))
        except ValueError:
            return
        sender = message.sender_ip.value
        if sender != 0:
            self._arp_cache[sender] = message.sender_mac
            self._drain_pending(sender)
        if (
            message.op == OP_REQUEST
            and self.ip is not None
            and message.target_ip == self.ip
        ):
            reply = ArpMessage.reply(self.mac, self.ip, message.sender_mac,
                                     message.sender_ip)
            out = EthernetFrame(
                self.mac, message.sender_mac, reply.to_bytes(),
                ethertype=ETHERTYPE_ARP,
            )
            self.port.send(out)

    def _drain_pending(self, ip: int) -> None:
        pending = self._arp_pending.pop(ip, None)
        if not pending:
            return
        mac = self._arp_cache[ip]
        for packet in pending:
            self._transmit(packet, mac)

    def arp_cache_snapshot(self) -> Dict[IPv4Address, MacAddress]:
        return {IPv4Address(ip): mac for ip, mac in self._arp_cache.items()}

    def __repr__(self) -> str:
        return f"<Host {self.name} ip={self.ip} mac={self.mac}>"
