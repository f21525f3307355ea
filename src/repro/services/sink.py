"""The catch-all sink server (§6.3).

"Our simplest catch-all server accepts arbitrary input and requires a
mere 100 lines of code."  It accepts any TCP connection on any port
and any UDP datagram, records everything, and never meaningfully
responds — the landing zone for reflected traffic during default-deny
policy development (§3) and the safety net behind spambot policies.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.host import Host
from repro.net.packet import IPv4Packet, UDPDatagram
from repro.net.tcp import TcpConnection


class SinkConnectionRecord:
    """One connection (or UDP flow) that hit the sink."""

    __slots__ = ("timestamp", "src_ip", "src_port", "dst_port", "proto",
                 "payload")

    def __init__(self, timestamp: float, src_ip, src_port: int,
                 dst_port: int, proto: str) -> None:
        self.timestamp = timestamp
        self.src_ip = src_ip
        self.src_port = src_port
        self.dst_port = dst_port
        self.proto = proto
        self.payload = bytearray()

    def __repr__(self) -> str:
        return (
            f"<SinkRecord {self.proto} {self.src_ip}:{self.src_port}->"
            f":{self.dst_port} {len(self.payload)}B>"
        )


class CatchAllSink:
    """Accept arbitrary traffic; record it; respond with nothing."""

    def __init__(self, host: Host, udp_ports: Optional[List[int]] = None) -> None:
        self.host = host
        self.records: List[SinkConnectionRecord] = []
        self.connections_accepted = 0
        self.datagrams_received = 0
        tel = host.sim.telemetry
        tel.counter(
            "sink.connections", "TCP connections the sink accepted"
        ).register(lambda: self.connections_accepted)
        tel.counter(
            "sink.datagrams", "UDP datagrams the sink captured"
        ).register(lambda: self.datagrams_received)
        host.tcp.listen_any(self._accept)
        for port in udp_ports or []:
            host.udp.bind(port, self._datagram)

    def _accept(self, conn: TcpConnection) -> None:
        self.connections_accepted += 1
        record = SinkConnectionRecord(
            self.host.sim.now, conn.remote_ip, conn.remote_port,
            conn.local_port, "tcp",
        )
        self.records.append(record)
        conn.on_data = lambda c, d: record.payload.extend(d)
        conn.on_remote_close = lambda c: c.close()

    def _datagram(self, host: Host, packet: IPv4Packet,
                  datagram: UDPDatagram) -> None:
        self.datagrams_received += 1
        record = SinkConnectionRecord(
            host.sim.now, packet.src, datagram.sport, datagram.dport, "udp",
        )
        record.payload.extend(datagram.payload)
        self.records.append(record)

    # ------------------------------------------------------------------
    # Analysis helpers (what the analyst inspects during §3 iteration)
    # ------------------------------------------------------------------
    def by_destination_port(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for record in self.records:
            counts[record.dst_port] = counts.get(record.dst_port, 0) + 1
        return counts

    def payloads_for_port(self, port: int) -> List[bytes]:
        return [bytes(r.payload) for r in self.records if r.dst_port == port]
