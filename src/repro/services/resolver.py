"""The recursive DNS resolver service (§5.3).

Part of the restricted broadcast domain: inmates receive this
resolver's address via DHCP and use it for all lookups (C&C domains,
victim MX records).  It answers from a local zone when configured and
otherwise recurses to an upstream authoritative server across the
gateway's control-network NAT — so inmate name resolution exercises
the same simulated Internet the malware later connects into.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.net.addresses import IPv4Address
from repro.net.dns import (
    DnsMessage,
    DnsRecord,
    QTYPE_A,
    RCODE_NXDOMAIN,
)
from repro.net.host import Host
from repro.net.packet import IPv4Packet, UDPDatagram
from repro.obs.telemetry import tally

DNS_PORT = 53


class RecursiveResolver:
    """Caching recursive resolver for the inmate network."""

    def __init__(
        self,
        host: Host,
        upstream_ip: Optional[IPv4Address] = None,
        static_zone: Optional[Dict[str, IPv4Address]] = None,
    ) -> None:
        self.host = host
        self.upstream_ip = IPv4Address(upstream_ip) if upstream_ip else None
        self.static_zone = {
            name.lower(): IPv4Address(ip)
            for name, ip in (static_zone or {}).items()
        }
        self.cache: Dict[Tuple[str, int], list] = {}
        self.nxdomains = 0
        # Queries served by outcome (static, cached, nxdomain, recursed);
        # each registers a read of its count the first time it happens.
        self.outcomes: Dict[str, int] = {}
        self._m_queries = host.sim.telemetry.counter(
            "dns.queries", "DNS queries served, by outcome")
        host.udp.bind(DNS_PORT, self._on_query)

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
        qtype = query.question.qtype

        if qtype == QTYPE_A and name in self.static_zone:
            self._count("static")
            reply = query.reply([DnsRecord.a(name, self.static_zone[name])])
            self._send_reply(reply, packet.src, datagram.sport)
            return

        cached = self.cache.get((name, qtype))
        if cached is not None:
            self._count("cached")
            self._send_reply(query.reply(cached), packet.src, datagram.sport)
            return

        if self.upstream_ip is None:
            self.nxdomains += 1
            self._count("nxdomain")
            self._send_reply(query.reply([], rcode=RCODE_NXDOMAIN),
                             packet.src, datagram.sport)
            return
        self._recurse(query, packet.src, datagram.sport)

    def _recurse(self, query: DnsMessage, client_ip: IPv4Address,
                 client_port: int) -> None:
        self._count("recursed")
        src_port = self.host.udp.allocate_port()
        name, qtype = query.question.name, query.question.qtype

        def on_upstream(host: Host, packet: IPv4Packet,
                        datagram: UDPDatagram) -> None:
            host.udp.unbind(src_port)
            try:
                response = DnsMessage.from_bytes(datagram.payload)
            except ValueError:
                return
            if response.txid != query.txid:
                return
            if response.rcode == 0 and response.answers:
                self.cache[(name, qtype)] = response.answers
            else:
                self.nxdomains += 1
            reply = query.reply(response.answers, rcode=response.rcode)
            self._send_reply(reply, client_ip, client_port)

        self.host.udp.bind(src_port, on_upstream)
        self.host.udp.sendto(query.to_bytes(), self.upstream_ip, DNS_PORT,
                             src_port)

    def _count(self, outcome: str) -> None:
        tally(self.outcomes, outcome, self._m_queries, outcome=outcome)

    def _send_reply(self, reply: DnsMessage, ip: IPv4Address,
                    port: int) -> None:
        self.host.udp.sendto(reply.to_bytes(), ip, port, src_port=DNS_PORT)
