"""The authoritative DNS server of the simulated Internet.

One flat authority serving A and MX records for every zone in the
external universe — C&C domains, victim domains, their mail
exchangers.  Subfarm resolvers recurse to it through the gateway's
control-network NAT, so inmate lookups traverse the real (simulated)
path.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.net.addresses import IPv4Address
from repro.net.dns import (
    DnsMessage,
    DnsRecord,
    QTYPE_A,
    QTYPE_MX,
    RCODE_NXDOMAIN,
)
from repro.net.host import Host
from repro.net.packet import IPv4Packet, UDPDatagram

DNS_PORT = 53


class AuthoritativeDns:
    """Flat authoritative server for the whole external universe."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self._a: Dict[str, IPv4Address] = {}
        self._mx: Dict[str, List[Tuple[int, str]]] = {}
        self.queries_answered = 0
        self.nxdomains = 0
        host.udp.bind(DNS_PORT, self._on_query)

    def add_a(self, name: str, address: IPv4Address) -> None:
        self._a[name.lower()] = IPv4Address(address)

    def add_mx(self, domain: str, exchange: str, priority: int = 10) -> None:
        self._mx.setdefault(domain.lower(), []).append((priority, exchange))

    # ------------------------------------------------------------------
    def _on_query(self, host: Host, packet: IPv4Packet,
                  datagram: UDPDatagram) -> None:
        try:
            query = DnsMessage.from_bytes(datagram.payload)
        except ValueError:
            return
        if query.is_response:
            return
        name = query.question.name
        answers: List[DnsRecord] = []
        if query.question.qtype == QTYPE_A and name in self._a:
            answers.append(DnsRecord.a(name, self._a[name]))
        elif query.question.qtype == QTYPE_MX and name in self._mx:
            for priority, exchange in sorted(self._mx[name]):
                answers.append(DnsRecord.mx(name, exchange, priority))
        if answers:
            self.queries_answered += 1
            reply = query.reply(answers)
        else:
            self.nxdomains += 1
            reply = query.reply([], rcode=RCODE_NXDOMAIN)
        host.udp.sendto(reply.to_bytes(), packet.src, datagram.sport,
                        src_port=DNS_PORT)
