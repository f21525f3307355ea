"""Flow identification.

GQ's containment operates at *per-flow* granularity: the gateway keys
its flow table and the containment server keys its verdicts on the
five-tuple (plus the inmate's VLAN ID, which identifies the inmate).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.net.addresses import IPv4Address
from repro.net.packet import IPv4Packet, PROTO_TCP, PROTO_UDP


class FiveTuple(NamedTuple):
    """The classic five-tuple, oriented originator -> responder."""

    orig_ip: IPv4Address
    orig_port: int
    resp_ip: IPv4Address
    resp_port: int
    proto: int

    @classmethod
    def from_packet(cls, packet: IPv4Packet) -> "FiveTuple":
        """Build an originator-oriented tuple from a packet as sent."""
        if packet.proto == PROTO_TCP:
            transport = packet.tcp
        elif packet.proto == PROTO_UDP:
            transport = packet.udp
        else:
            raise ValueError(f"flow tuples require TCP or UDP, got proto {packet.proto}")
        return cls(packet.src, transport.sport, packet.dst, transport.dport, packet.proto)

    def as_key(self) -> tuple:
        """``(src ip as int, sport, dst ip as int, dport, proto)``: the
        gateway's flow key and, with the VLAN, the journal's alias."""
        return (self[0].value, self[1], self[2].value, self[3], self[4])

    def reversed(self) -> "FiveTuple":
        return FiveTuple(
            self.resp_ip, self.resp_port, self.orig_ip, self.orig_port, self.proto
        )

    @property
    def proto_name(self) -> str:
        return {PROTO_TCP: "tcp", PROTO_UDP: "udp"}.get(self.proto, str(self.proto))

    def __str__(self) -> str:
        return (
            f"{self.orig_ip}:{self.orig_port} -> "
            f"{self.resp_ip}:{self.resp_port}/{self.proto_name}"
        )
