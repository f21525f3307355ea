"""Simulated network substrate.

This package provides everything GQ's gateway and containment machinery
operate on: Ethernet frames with 802.1Q VLAN tags, IPv4 packets, TCP
segments with a byte-accurate sequence space, UDP datagrams, links and
VLAN-aware switches, and per-host TCP/UDP stacks with a small socket
API.

Fidelity goals (what must be real for the reproduction to be honest):

* TCP sequence/acknowledgement numbers are real 32-bit stream offsets —
  the gateway's shim injection and stripping (paper Figure 5) performs
  genuine ``SEQ += |REQ SHIM|`` / ``SEQ -= |RSP SHIM|`` arithmetic.
* All packet headers have byte-level serializations with checksums, so
  wire formats (notably the shim protocol, Figure 4) are bit-accurate.
* Delivery is event-driven on the shared virtual clock; latency is per
  link and deterministic.
"""

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.errors import ParseError
from repro.net.flow import FiveTuple
from repro.net.packet import (
    EthernetFrame,
    IPv4Packet,
    TCPSegment,
    UDPDatagram,
    PROTO_TCP,
    PROTO_UDP,
)

__all__ = [
    "IPv4Address",
    "MacAddress",
    "ParseError",
    "FiveTuple",
    "EthernetFrame",
    "IPv4Packet",
    "TCPSegment",
    "UDPDatagram",
    "PROTO_TCP",
    "PROTO_UDP",
]
