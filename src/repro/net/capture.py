"""Packet trace capture — GQ's two-pronged recording strategy (§5.6).

The gateway records each subfarm's activity from the inmate network's
perspective (internal RFC 1918 addresses: cheap anonymity for data
sharing) and, separately, everything crossing the upstream interface
as seen outside GQ.  :class:`PacketTrace` is the in-memory store both
analysis and reporting read from; :func:`write_pcap` emits genuine
libpcap files for interoperability.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from typing import Callable, Iterable, Iterator, List, Optional

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.flow import FiveTuple
from repro.net.packet import (EthernetFrame, IPv4Packet, PROTO_TCP, PROTO_UDP,
                              TCPSegment, UDPDatagram)

PCAP_MAGIC = 0xA1B2C3D4
LINKTYPE_ETHERNET = 1


class TraceRecord:
    """One captured frame with its capture timestamp and point."""

    __slots__ = ("timestamp", "frame", "point")

    def __init__(self, timestamp: float, frame: EthernetFrame, point: str) -> None:
        self.timestamp = timestamp
        self.frame = frame
        self.point = point

    @property
    def ip(self) -> Optional[IPv4Packet]:
        payload = self.frame.payload
        return payload if isinstance(payload, IPv4Packet) else None

    @property
    def five_tuple(self) -> Optional[FiveTuple]:
        ip = self.ip
        if ip is None or ip.proto not in (PROTO_TCP, PROTO_UDP):
            return None
        try:
            return FiveTuple.from_packet(ip)
        except ValueError:
            return None

    def __repr__(self) -> str:
        return f"<TraceRecord t={self.timestamp:.6f} {self.point} {self.frame!r}>"


# Column order of a by-value row.  UDP rows stop after _PAYLOAD, TCP
# rows carry the four columns behind it; a frame that is not plain
# TCP/UDP over IPv4 is stored as (timestamp, point, frame copy).
(_TS, _POINT, _ETH_SRC, _ETH_DST, _VLAN, _ETHERTYPE, _SRC, _DST, _PROTO,
 _TTL, _IDENT, _SPORT, _DPORT, _PAYLOAD, _SEQ, _ACK, _FLAGS,
 _WINDOW) = range(18)
_FRAME = 2
_FRAME_ROW_LEN = 3


def _record(row: tuple) -> TraceRecord:
    """Rebuild the record (and its frame) a row describes."""
    if len(row) == _FRAME_ROW_LEN:
        return TraceRecord(row[_TS], row[_FRAME], row[_POINT])
    if row[_PROTO] == PROTO_TCP:
        transport = TCPSegment(row[_SPORT], row[_DPORT], row[_SEQ],
                               row[_ACK], row[_FLAGS], row[_WINDOW],
                               row[_PAYLOAD])
    else:
        transport = UDPDatagram(row[_SPORT], row[_DPORT], row[_PAYLOAD])
    packet = IPv4Packet(IPv4Address(row[_SRC]), IPv4Address(row[_DST]),
                        transport, row[_PROTO], row[_TTL], row[_IDENT])
    frame = EthernetFrame(MacAddress(row[_ETH_SRC]), MacAddress(row[_ETH_DST]),
                          packet, row[_VLAN], row[_ETHERTYPE])
    return TraceRecord(row[_TS], frame, row[_POINT])


def _headers(row: tuple) -> tuple:
    """``(vlan, proto, src, sport, dst, dport)`` of a row, addresses as
    ints; whatever the frame does not carry is None."""
    if len(row) != _FRAME_ROW_LEN:
        return (row[_VLAN], row[_PROTO], row[_SRC], row[_SPORT],
                row[_DST], row[_DPORT])
    frame = row[_FRAME]
    packet = frame.payload
    if not isinstance(packet, IPv4Packet):
        return frame.vlan, None, None, None, None, None
    transport = packet.payload
    if not isinstance(transport, (TCPSegment, UDPDatagram)):
        return frame.vlan, packet.proto, None, None, None, None
    return (frame.vlan, packet.proto, packet.src.value, transport.sport,
            packet.dst.value, transport.dport)


class _RecordView(Sequence):
    """``trace.records``: a read-only sequence over the trace's rows
    that builds each :class:`TraceRecord` when it is read.  Indexing
    and iterating return fresh records; a slice returns a list."""

    __slots__ = ("_rows",)

    def __init__(self, rows: List[tuple]) -> None:
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_record(row) for row in self._rows[index]]
        return _record(self._rows[index])

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_record, self._rows)

    def __repr__(self) -> str:
        return f"<records of {len(self._rows)} captured frames>"


class PacketTrace:
    """A capture buffer with query helpers and live observers.

    Two consumption models, mirroring §5.6/§6.5 practice:

    * *Post-hoc*: ``records`` holds captured frames for querying and
      pcap export.  ``max_records`` bounds the buffer (oldest frames
      rotate out, counted in ``rotated_out``) so day-scale runs do not
      hold every packet in memory.
    * *Streaming*: observers registered via :meth:`subscribe` see every
      record as it is captured — how the Bro-style analyzers process
      multi-day activity without retaining the packets.

    A capture is, as in a pcap, the bytes at the capture instant: each
    TCP/UDP frame is stored as one flat tuple of its header fields by
    value plus the (immutable) payload ``bytes``, holding no packet
    object and nothing the cyclic GC tracks.  ``records`` is a view
    that rebuilds :class:`TraceRecord` objects on access.
    """

    def __init__(self, name: str = "trace",
                 max_records: Optional[int] = None) -> None:
        self.name = name
        self.max_records = max_records
        self._rows: List[tuple] = []
        self.records = _RecordView(self._rows)
        self.rotated_out = 0
        self._observers: List[Callable[[TraceRecord], None]] = []

    def subscribe(self, observer: Callable[[TraceRecord], None]) -> None:
        """Register a live observer; it sees each record at capture."""
        self._observers.append(observer)

    def capture(self, timestamp: float, frame: EthernetFrame,
                point: str = "") -> None:
        """Record the frame as it is now (it may be mutated later)."""
        row = None
        packet = frame.payload
        if type(packet) is IPv4Packet:
            transport = packet.payload
            kind = type(transport)
            proto = packet.proto
            if (kind is TCPSegment and proto == PROTO_TCP
                    and type(transport.payload) is bytes):
                row = (timestamp, point, frame.src.value, frame.dst.value,
                       frame.vlan, frame.ethertype, packet.src.value,
                       packet.dst.value, proto, packet.ttl, packet.ident,
                       transport.sport, transport.dport, transport.payload,
                       transport.seq, transport.ack, transport.flags,
                       transport.window)
            elif (kind is UDPDatagram and proto == PROTO_UDP
                    and type(transport.payload) is bytes):
                row = (timestamp, point, frame.src.value, frame.dst.value,
                       frame.vlan, frame.ethertype, packet.src.value,
                       packet.dst.value, proto, packet.ttl, packet.ident,
                       transport.sport, transport.dport, transport.payload)
        if row is None:
            row = (timestamp, point, frame.copy())
        if self._observers:
            record = _record(row)
            for observer in self._observers:
                observer(record)
        rows = self._rows
        rows.append(row)
        if self.max_records is not None and len(rows) > self.max_records:
            overflow = len(rows) - self.max_records
            del rows[:overflow]
            self.rotated_out += overflow

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def select(
        self,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
        point: Optional[str] = None,
        vlan: Optional[int] = None,
        proto: Optional[int] = None,
        dport: Optional[int] = None,
    ) -> List[TraceRecord]:
        """Filter records by capture point, VLAN tag, proto, dst port."""
        out = []
        for row in self._rows:
            if point is not None and row[_POINT] != point:
                continue
            row_vlan, row_proto, _src, _sport, _dst, row_dport = _headers(row)
            if vlan is not None and row_vlan != vlan:
                continue
            if proto is not None and row_proto != proto:
                continue
            if dport is not None and row_dport != dport:
                continue
            record = _record(row)
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return out

    def flows(self) -> List[FiveTuple]:
        """Distinct originator-oriented five-tuples, first-seen order.

        A flow's originator is whoever sent the first packet we saw;
        for TCP that is the SYN sender.
        """
        seen = {}
        for row in self._rows:
            _vlan, proto, src, sport, dst, dport = _headers(row)
            if sport is None or proto not in (PROTO_TCP, PROTO_UDP):
                continue
            if ((src, sport, dst, dport, proto) in seen
                    or (dst, dport, src, sport, proto) in seen):
                continue
            seen[(src, sport, dst, dport, proto)] = True
        return [FiveTuple(IPv4Address(src), sport, IPv4Address(dst), dport,
                          proto)
                for src, sport, dst, dport, proto in seen]

    def tcp_payload(self, flow: FiveTuple, direction: str = "orig") -> bytes:
        """Concatenated TCP payload bytes for one direction of a flow.

        Duplicate segments (same sequence number) are ignored so NAT'd
        captures of retransmissions do not double bytes.
        """
        if flow.proto != PROTO_TCP:
            return b""
        orig = (flow.orig_ip.value, flow.orig_port)
        resp = (flow.resp_ip.value, flow.resp_port)
        forward, backward = orig + resp, resp + orig
        chunks = {}
        for row in self._rows:
            _vlan, proto, src, sport, dst, dport = _headers(row)
            if proto != PROTO_TCP:
                continue
            # Originator direction wins for a flow that is its own
            # reverse, as in FiveTuple.matches_packet.
            if (src, sport, dst, dport) == forward:
                match = "orig"
            elif (src, sport, dst, dport) == backward:
                match = "resp"
            else:
                continue
            if match != direction:
                continue
            if len(row) == _FRAME_ROW_LEN:
                segment = row[_FRAME].payload.payload
                seq, payload = segment.seq, segment.payload
            else:
                seq, payload = row[_SEQ], row[_PAYLOAD]
            if payload and seq not in chunks:
                chunks[seq] = payload
        return b"".join(chunks[seq] for seq in sorted(chunks))


def write_pcap(path: str, records: Iterable[TraceRecord],
               snaplen: int = 65535) -> int:
    """Write records as a classic libpcap file; returns frames written.

    Frames longer than ``snaplen`` are snapped: ``incl_len`` records
    the bytes actually stored, ``orig_len`` the wire length, exactly
    as libpcap specifies.
    """
    if snaplen <= 0:
        raise ValueError("snaplen must be positive")
    count = 0
    with open(path, "wb") as handle:
        handle.write(
            struct.pack(
                "!IHHiIII",
                PCAP_MAGIC, 2, 4, 0, 0, snaplen, LINKTYPE_ETHERNET,
            )
        )
        for record in records:
            data = record.frame.to_bytes()
            seconds = int(record.timestamp)
            micros = int(round((record.timestamp - seconds) * 1_000_000))
            if micros >= 1_000_000:
                # Sub-microsecond timestamps round up past the second
                # boundary (e.g. t = 3.9999999); carry, never emit an
                # out-of-range microseconds field.
                seconds += micros // 1_000_000
                micros %= 1_000_000
            incl = data[:snaplen]
            handle.write(struct.pack("!IIII", seconds, micros,
                                     len(incl), len(data)))
            handle.write(incl)
            count += 1
    return count


def read_pcap(path: str) -> List[TraceRecord]:
    """Read a classic libpcap file written by :func:`write_pcap`.

    Snapped records (``incl_len < orig_len``) whose remaining bytes no
    longer parse as a frame are skipped; a record body shorter than
    its own ``incl_len`` means the file itself is truncated and is an
    error.
    """
    records = []
    with open(path, "rb") as handle:
        header = handle.read(24)
        if len(header) < 24:
            raise ValueError("truncated pcap header")
        (magic,) = struct.unpack("!I", header[:4])
        if magic != PCAP_MAGIC:
            raise ValueError("not a pcap file (or unsupported byte order)")
        while True:
            record_header = handle.read(16)
            if not record_header:
                break
            if len(record_header) < 16:
                raise ValueError("truncated pcap record header")
            seconds, micros, caplen, origlen = struct.unpack(
                "!IIII", record_header)
            data = handle.read(caplen)
            if len(data) < caplen:
                raise ValueError("truncated pcap record")
            try:
                frame = EthernetFrame.from_bytes(data)
            except Exception:
                if caplen < origlen:
                    continue  # snapped beyond parseability
                raise
            records.append(TraceRecord(seconds + micros / 1_000_000, frame, "pcap"))
    return records
