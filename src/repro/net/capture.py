"""Packet trace capture — GQ's two-pronged recording strategy (§5.6).

The gateway records each subfarm's activity from the inmate network's
perspective (internal RFC 1918 addresses: cheap anonymity for data
sharing) and, separately, everything crossing the upstream interface
as seen outside GQ.  :class:`PacketTrace` is the in-memory store both
analysis and reporting read from; :func:`write_pcap` emits genuine
libpcap files for interoperability.  A subfarm's inmate-side trace
stores nothing unless a reader asks before the run: observers read it
as a stream.  The upstream trace stores every frame.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from itertools import chain
from typing import Callable, Iterable, Iterator, List, Optional

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.flow import FiveTuple
from repro.net.packet import (EthernetFrame, IPv4Packet, PROTO_TCP, PROTO_UDP,
                              TCPSegment, UDPDatagram)

PCAP_MAGIC = 0xA1B2C3D4
LINKTYPE_ETHERNET = 1


class TraceRotated(RuntimeError):
    """A reader of ``records`` met a trace that let frames go by
    unstored: it refuses rather than hand back part of the run."""

    def __init__(self, trace: str, rotated_out: int) -> None:
        self.trace, self.rotated_out = trace, rotated_out
        super().__init__(
            f"trace {trace!r} let {rotated_out} frames go by unstored: "
            f"set its store = True before the run, or subscribe an "
            f"observer")


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


class _RecordView(Sequence):
    """``trace.records``: a read-only sequence over the trace's rows
    that builds each :class:`TraceRecord` when it is read.  Indexing
    and iterating return fresh records; a slice returns a list.  Both
    raise :class:`TraceRotated` on a trace that let a frame go by
    unstored."""

    __slots__ = ("_trace",)

    def __init__(self, trace: "PacketTrace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    def __getitem__(self, index):
        trace = self._trace
        if trace.rotated_out:
            raise TraceRotated(trace.name, trace.rotated_out)
        # A range over the slots indexes and slices as a list would.
        picked = range(len(trace._payloads))[index]
        if isinstance(index, slice):
            return [self[slot] for slot in picked]
        return trace._build(_unpack_from(trace._headers, picked * _ROW_SIZE),
                            trace._payloads[picked])

    def __iter__(self) -> Iterator[TraceRecord]:
        # By position, as a list iterator would: the trace may grow
        # while a consumer is part-way through.  Rows are decoded a
        # chunk of headers at a time (copied, so a capture between two
        # reads is free to grow the store).
        trace = self._trace
        if trace.rotated_out:
            raise TraceRotated(trace.name, trace.rotated_out)
        build = trace._build
        start = 0
        while True:
            payloads = trace._payloads
            stop = min(len(payloads), start + _READ_CHUNK)
            if start >= stop:
                return
            headers = trace._headers[start * _ROW_SIZE:stop * _ROW_SIZE]
            for fields, slot in zip(_iter_unpack(headers),
                                    payloads[start:stop]):
                yield build(fields, slot)
            start = stop

    def __repr__(self) -> str:
        return f"<records of {len(self._trace)} captured frames>"


class PacketTrace:
    """A capture buffer with live observers.

    Two consumption models, mirroring §5.6/§6.5 practice:

    * *Post-hoc*: ``records`` holds every captured frame, read by
      iterating it.  ``store = False`` stores nothing (each capture is
      counted in ``rotated_out`` instead), so a trace read only as a
      stream holds no packet in memory; reading ``records`` of a trace
      that let any frame go by unstored raises :class:`TraceRotated`
      rather than hand back part of the run.
    * *Streaming*: observers registered via :meth:`subscribe` see every
      record as it is captured — how the Bro-style analyzers process
      multi-day activity without retaining the packets.  The record
      holds the captured frame itself, which nothing mutates once it
      is sent (docs/PERFORMANCE.md, "Packet ownership").

    A capture is, as in a pcap, the bytes at the capture instant: each
    TCP/UDP frame is one packed header appended to a single
    ``bytearray`` plus a reference to the (immutable) payload ``bytes``
    in a parallel list — no per-row Python object at all.  ``records``
    is a view that rebuilds :class:`TraceRecord` objects on access.
    """

    def __init__(self, name: str = "trace", store: bool = True) -> None:
        self.name = name
        self.store = store
        self._headers = bytearray()
        self._payloads: list = []
        self._points: List[str] = []
        self._point_codes: dict = {}
        self.records = _RecordView(self)
        self.rotated_out = 0
        self._observers: List[Callable[[TraceRecord], None]] = []

    def subscribe(self, observer: Callable[[TraceRecord], None]) -> None:
        """Register a live observer; it sees each record at capture,
        one record per capture shared by every observer."""
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
        """Hand the frame to the observers, then store it as it is
        now (it may be mutated later) unless the trace stores nothing."""
        if self._observers:
            record = _new(TraceRecord)
            record.timestamp = timestamp
            record.frame = frame
            record.point = point
            for observer in self._observers:
                observer(record)
        if not self.store:
            self.rotated_out += 1
            return
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
        self._headers += header
        self._payloads.append(slot)

    def __len__(self) -> int:
        return len(self._payloads)

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


def write_pcap(path: str, records: Iterable[TraceRecord],
               snaplen: int = 65535) -> int:
    """Write records as a classic libpcap file; returns frames written.

    Frames longer than ``snaplen`` are snapped: ``incl_len`` records
    the bytes actually stored, ``orig_len`` the wire length, exactly
    as libpcap specifies.
    """
    if snaplen <= 0:
        raise ValueError("snaplen must be positive")
    # The first record is read before the file is made: a trace that
    # refuses its reader (TraceRotated) leaves no partial pcap behind.
    records = iter(records)
    first = next(records, None)
    count = 0
    with open(path, "wb") as handle:
        handle.write(
            struct.pack(
                "!IHHiIII",
                PCAP_MAGIC, 2, 4, 0, 0, snaplen, LINKTYPE_ETHERNET,
            )
        )
        for record in () if first is None else chain((first,), records):
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
