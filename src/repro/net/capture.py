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


# One packed header per captured TCP/UDP-over-IPv4 frame (little-endian,
# no padding, 56 bytes): timestamp f64 | Ethernet src, dst u64 | vlan u16
# (_UNTAGGED for none) | ethertype u16 | IPv4 src, dst u32 | proto, ttl
# u8 | ident, sport, dport u16 | seq, ack u32 | flags u8 | window u16 |
# capture-point code u8.  UDP rows leave seq/ack/flags/window zero.
_ROW = struct.Struct("<dQQHHIIBBHHHIIBHB")
_ROW_SIZE = _ROW.size
_pack = _ROW.pack
_unpack_from = _ROW.unpack_from
_iter_unpack = _ROW.iter_unpack
(_TS, _ETH_SRC, _ETH_DST, _VLAN, _ETHERTYPE, _SRC, _DST, _PROTO, _TTL,
 _IDENT, _SPORT, _DPORT, _SEQ, _ACK, _FLAGS, _WINDOW, _POINT) = range(17)
_UNTAGGED = 0xFFFF
_MAX_POINTS = 256
# A frame that is not plain TCP/UDP over IPv4, or whose fields do not
# fit the header, keeps an all-zero header (proto 0 marks it) and puts
# ``(timestamp, point, frame copy)`` in its payload slot.
_FALLBACK = bytes(_ROW_SIZE)
# Rows decoded per snapshot when iterating ``records``: large enough to
# amortise the slice, small enough that reading a long trace back adds
# nothing to the process's peak memory.
_READ_CHUNK = 1024
# Rebuilding a record fills slots directly, as the packet plane's own
# clones do (TCPSegment.rebind, IPv4Packet.wrap): every field was
# validated when the frame was captured.  Addresses come from the
# intern tables — a hit, the common case, costs no call.
_new = object.__new__
_IP_INTERNED = IPv4Address._intern
_MAC_INTERNED = MacAddress._intern


def _frame_columns(frame: EthernetFrame) -> tuple:
    """``(vlan, proto, src, sport, dst, dport, seq, payload)`` of a
    stored frame copy, addresses as ints; whatever the frame does not
    carry is None."""
    packet = frame.payload
    if not isinstance(packet, IPv4Packet):
        return frame.vlan, None, None, None, None, None, None, None
    transport = packet.payload
    if not isinstance(transport, (TCPSegment, UDPDatagram)):
        return frame.vlan, packet.proto, None, None, None, None, None, None
    return (frame.vlan, packet.proto, packet.src.value, transport.sport,
            packet.dst.value, transport.dport,
            getattr(transport, "seq", None), transport.payload)


class _RecordView(Sequence):
    """``trace.records``: a read-only sequence over the trace's rows
    that builds each :class:`TraceRecord` when it is read.  Indexing
    and iterating return fresh records; a slice returns a list."""

    __slots__ = ("_trace",)

    def __init__(self, trace: "PacketTrace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    def __getitem__(self, index):
        trace = self._trace
        # A range over the live slots indexes and slices as a list would.
        picked = range(trace._head, len(trace._payloads))[index]
        if isinstance(index, slice):
            return [trace._record(slot) for slot in picked]
        return trace._record(picked)

    def __iter__(self) -> Iterator[TraceRecord]:
        # By position, as a list iterator would: the trace may grow (or
        # rotate) while a consumer is part-way through.  Rows are
        # decoded a chunk of headers at a time (copied, so a capture
        # between two reads is free to grow the store); a rotation
        # moves positions, so the chunk is dropped and re-read.
        trace = self._trace
        build = trace._build
        index = 0
        while True:
            rotated = trace.rotated_out
            payloads = trace._payloads
            start = trace._head + index
            stop = min(len(payloads), start + _READ_CHUNK)
            if start >= stop:
                return
            headers = trace._headers[start * _ROW_SIZE:stop * _ROW_SIZE]
            for fields, slot in zip(_iter_unpack(headers),
                                    payloads[start:stop]):
                yield build(fields, slot)
                index += 1
                if trace.rotated_out != rotated:
                    break

    def __repr__(self) -> str:
        return f"<records of {len(self._trace)} captured frames>"


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
    TCP/UDP frame is one packed header appended to a single
    ``bytearray`` plus a reference to the (immutable) payload ``bytes``
    in a parallel list — no per-row Python object at all.  ``records``
    is a view that rebuilds :class:`TraceRecord` objects on access.

    The store is a ring: rotation advances ``_head`` past the oldest
    row, and the dead prefix is cut off (``compactions``) once it
    outgrows the live rows, so a bounded trace costs the same per
    capture as an unbounded one.
    """

    def __init__(self, name: str = "trace",
                 max_records: Optional[int] = None) -> None:
        self.name = name
        self.max_records = max_records
        self._headers = bytearray()
        self._payloads: list = []
        self._head = 0
        self._points: List[str] = []
        self._point_codes: dict = {}
        self.records = _RecordView(self)
        self.rotated_out = 0
        self.compactions = 0
        self._observers: List[Callable[[TraceRecord], None]] = []

    def subscribe(self, observer: Callable[[TraceRecord], None]) -> None:
        """Register a live observer; it sees each record at capture."""
        self._observers.append(observer)

    def _point_code(self, point: str) -> Optional[int]:
        """Register a capture point; None once the codes are used up
        (the row then takes the fallback)."""
        if len(self._points) == _MAX_POINTS:
            return None
        code = self._point_codes[point] = len(self._points)
        self._points.append(point)
        return code

    def capture(self, timestamp: float, frame: EthernetFrame,
                point: str = "") -> None:
        """Record the frame as it is now (it may be mutated later)."""
        header = slot = None
        packet = frame.payload
        if type(packet) is IPv4Packet:
            transport = packet.payload
            kind = type(transport)
            proto = packet.proto
            vlan = frame.vlan
            if vlan is None:
                vlan = _UNTAGGED
            elif vlan == _UNTAGGED:
                kind = None  # a tag equal to the sentinel: fallback row
            try:
                code = self._point_codes[point]
            except KeyError:
                code = self._point_code(point)
            # A field that does not fit its column (or a None code)
            # makes pack raise: the frame takes the fallback row.
            try:
                if (kind is TCPSegment and proto == PROTO_TCP
                        and type(transport.payload) is bytes):
                    header = _pack(
                        timestamp, frame.src.value, frame.dst.value, vlan,
                        frame.ethertype, packet.src.value, packet.dst.value,
                        proto, packet.ttl, packet.ident, transport.sport,
                        transport.dport, transport.seq, transport.ack,
                        transport.flags, transport.window, code)
                    slot = transport.payload
                elif (kind is UDPDatagram and proto == PROTO_UDP
                        and type(transport.payload) is bytes):
                    header = _pack(
                        timestamp, frame.src.value, frame.dst.value, vlan,
                        frame.ethertype, packet.src.value, packet.dst.value,
                        proto, packet.ttl, packet.ident, transport.sport,
                        transport.dport, 0, 0, 0, 0, code)
                    slot = transport.payload
            except struct.error:
                pass
        if header is None:
            header, slot = _FALLBACK, (timestamp, point, frame.copy())
        if self._observers:
            record = self._build(_unpack_from(header), slot)
            for observer in self._observers:
                observer(record)
        self._headers += header
        payloads = self._payloads
        payloads.append(slot)
        bound = self.max_records
        if bound is None:
            return
        head = self._head
        overflow = len(payloads) - head - bound
        if overflow <= 0:
            return
        # Rotate the oldest rows out: release their payloads now, cut
        # their slots off once the dead prefix outgrows the live rows.
        if overflow == 1:
            payloads[head] = None
        else:  # the bound was lowered (below zero, even) on a full trace
            overflow = min(overflow, len(payloads) - head)
            payloads[head:head + overflow] = [None] * overflow
        head += overflow
        self.rotated_out += overflow
        if head > bound:
            del self._headers[:head * _ROW_SIZE]
            del payloads[:head]
            head = 0
            self.compactions += 1
        self._head = head

    def __len__(self) -> int:
        return len(self._payloads) - self._head

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def _build(self, fields: tuple, slot) -> TraceRecord:
        """The record (and its frame) one unpacked header and its
        payload slot describe."""
        (timestamp, eth_src, eth_dst, vlan, ethertype, src, dst, proto, ttl,
         ident, sport, dport, seq, ack, flags, window, point) = fields
        if not proto:
            timestamp, point, frame = slot
            return TraceRecord(timestamp, frame, point)
        if proto == PROTO_TCP:
            transport = _new(TCPSegment)
            transport.seq = seq
            transport.ack = ack
            transport.flags = flags
            transport.window = window
        else:
            transport = _new(UDPDatagram)
        transport.sport = sport
        transport.dport = dport
        transport.payload = slot
        packet = _new(IPv4Packet)
        packet.src = _IP_INTERNED.get(src) or IPv4Address(src)
        packet.dst = _IP_INTERNED.get(dst) or IPv4Address(dst)
        packet.proto = proto
        packet.ttl = ttl
        packet.ident = ident
        packet.payload = transport
        frame = _new(EthernetFrame)
        frame.src = _MAC_INTERNED.get(eth_src) or MacAddress(eth_src)
        frame.dst = _MAC_INTERNED.get(eth_dst) or MacAddress(eth_dst)
        # No 802.1Q range check (that is for senders): a capture
        # returns whatever was on the frame.
        frame.vlan = None if vlan == _UNTAGGED else vlan
        frame.ethertype = ethertype
        frame.payload = packet
        record = _new(TraceRecord)
        record.timestamp = timestamp
        record.frame = frame
        record.point = self._points[point]
        return record

    def _record(self, slot: int) -> TraceRecord:
        return self._build(_unpack_from(self._headers, slot * _ROW_SIZE),
                           self._payloads[slot])

    def _columns(self) -> Iterator[tuple]:
        """``(slot, point, vlan, proto, src, sport, dst, dport, seq,
        payload)`` of every live row, read off the packed headers —
        what the queries filter on without building a record."""
        headers, payloads, points = self._headers, self._payloads, self._points
        for slot in range(self._head, len(payloads)):
            fields = _unpack_from(headers, slot * _ROW_SIZE)
            proto = fields[_PROTO]
            if proto:
                vlan = fields[_VLAN]
                yield (slot, points[fields[_POINT]],
                       None if vlan == _UNTAGGED else vlan, proto,
                       fields[_SRC], fields[_SPORT], fields[_DST],
                       fields[_DPORT],
                       fields[_SEQ] if proto == PROTO_TCP else None,
                       payloads[slot])
            else:
                _timestamp, point, frame = payloads[slot]
                yield (slot, point) + _frame_columns(frame)

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
        for (slot, row_point, row_vlan, row_proto, _src, _sport, _dst,
             row_dport, _seq, _payload) in self._columns():
            if point is not None and row_point != point:
                continue
            if vlan is not None and row_vlan != vlan:
                continue
            if proto is not None and row_proto != proto:
                continue
            if dport is not None and row_dport != dport:
                continue
            record = self._record(slot)
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
        for (_slot, _point, _vlan, proto, src, sport, dst, dport, _seq,
             _payload) in self._columns():
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
        for (_slot, _point, _vlan, proto, src, sport, dst, dport, seq,
             payload) in self._columns():
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
