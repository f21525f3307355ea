"""Packet formats: Ethernet (with 802.1Q), IPv4, TCP, UDP.

Packets are plain mutable objects that the simulator passes by
reference; every layer also serializes to and from real wire bytes
(including IPv4 header checksums and TCP/UDP pseudo-header checksums)
so that wire formats — in particular the shim protocol the gateway
injects into TCP streams — are bit-accurate and testable.

Ownership: a frame handed to ``Port.send`` is never mutated again, so
switches and traces share it without copying.  A device that rewrites
(NAT, VLAN retagging, sequence-number bumping, TTL) builds a new header
over the shared payload, or mutates only its own :meth:`copy` before
sending it (docs/PERFORMANCE.md, "Packet ownership").
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Dict, Optional, Tuple, Union

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.errors import ParseError

PROTO_TCP = 6
PROTO_UDP = 17

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = 0x8100

# TCP flag bits
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10


_NEEDS_BYTESWAP = sys.byteorder == "little"


def _ones_complement_sum(data: bytes) -> int:
    """16-bit one's-complement sum used by IPv4/TCP/UDP checksums.

    Implemented as one bulk ``array('H')`` sum followed by a fold loop
    rather than folding per word.  Both forms reduce the word sum S to a
    value ``v ≡ S (mod 0xFFFF)`` in ``[0, 0xFFFF]`` and both return 0
    only for all-zero input, so the result is bit-identical to the
    per-word version at a fraction of the interpreter cost.
    """
    if len(data) % 2:
        data += b"\x00"
    words = array("H", data)
    if _NEEDS_BYTESWAP:
        words.byteswap()
    total = sum(words)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def internet_checksum(data: bytes) -> int:
    """RFC 1071 Internet checksum of ``data``."""
    return (~_ones_complement_sum(data)) & 0xFFFF


def ones_complement_sum(data: bytes) -> int:
    """Public entry to the folded 16-bit one's-complement sum.

    The batched serializer (repro.net.wirebatch) computes this once per
    run over the invariant bytes (pseudo-header, flags/window header
    fields, payload), then folds in only the per-packet seq/ack words —
    one's-complement addition is associative, so the result is
    bit-identical to checksumming each packet in full.
    """
    return _ones_complement_sum(data)


def fold_checksum(total: int) -> int:
    """Finish an accumulated one's-complement word sum into an RFC 1071
    checksum value (fold carries, complement, mask)."""
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def _validate_tcp_options(options: bytes) -> None:
    """Walk the TCP option TLVs; malformed lengths raise ParseError.

    The stack itself never emits options (data offset is always 5), so
    anything here came off a hostile wire: a zero/short option length
    or one running past the header is how lying length fields smuggle
    mis-framing into naive parsers.
    """
    index = 0
    end = len(options)
    while index < end:
        kind = options[index]
        if kind == 0:        # End of Option List
            return
        if kind == 1:        # NOP
            index += 1
            continue
        if index + 1 >= end:
            raise ParseError("tcp", f"truncated option (kind {kind})",
                             offset=20 + index)
        length = options[index + 1]
        if length < 2:
            raise ParseError("tcp", f"option length below minimum "
                             f"(kind {kind}, len {length})",
                             offset=20 + index)
        if index + length > end:
            raise ParseError("tcp", f"option overruns header "
                             f"(kind {kind}, len {length})",
                             offset=20 + index)
        index += length


class TCPSegment:
    """A TCP segment with a byte-accurate sequence space.

    A plain value object: whoever builds or copies one owns its fields
    until the enclosing frame is handed to ``Port.send``.
    """

    __slots__ = ("sport", "dport", "seq", "ack", "flags", "window", "payload")

    def __init__(
        self,
        sport: int,
        dport: int,
        seq: int = 0,
        ack: int = 0,
        flags: int = 0,
        window: int = 65535,
        payload: bytes = b"",
    ) -> None:
        self.sport = sport
        self.dport = dport
        self.seq = seq & 0xFFFFFFFF
        self.ack = ack & 0xFFFFFFFF
        self.flags = flags
        self.window = window
        self.payload = payload

    # Flag helpers -----------------------------------------------------
    @property
    def syn(self) -> bool:
        return bool(self.flags & SYN)

    @property
    def fin(self) -> bool:
        return bool(self.flags & FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & RST)

    @property
    def has_ack(self) -> bool:
        return bool(self.flags & ACK)

    @property
    def seq_len(self) -> int:
        """Sequence space consumed: payload bytes plus SYN/FIN."""
        return len(self.payload) + (1 if self.syn else 0) + (1 if self.fin else 0)

    def flag_string(self) -> str:
        names = []
        if self.syn:
            names.append("SYN")
        if self.fin:
            names.append("FIN")
        if self.rst:
            names.append("RST")
        if self.has_ack:
            names.append("ACK")
        if self.flags & PSH:
            names.append("PSH")
        return "|".join(names) or "-"

    def copy(self) -> "TCPSegment":
        return self.rebind(self.sport, self.dport, self.seq, self.ack)

    def rebind(self, sport: int, dport: int, seq: int, ack: int) -> "TCPSegment":
        """New segment carrying this one's flags/window/payload under
        translated addressing and sequence fields — the relay's inner
        operation.  A slot-level clone: the fields are already masked."""
        clone = object.__new__(TCPSegment)
        clone.sport = sport
        clone.dport = dport
        clone.seq = seq
        clone.ack = ack
        clone.flags = self.flags
        clone.window = self.window
        clone.payload = self.payload
        return clone

    def to_bytes(self, src: IPv4Address, dst: IPv4Address) -> bytes:
        """Serialize with a valid checksum over the pseudo-header."""
        header = struct.pack(
            "!HHIIBBHHH",
            self.sport, self.dport, self.seq, self.ack,
            5 << 4,  # data offset: 5 words, no options
            self.flags, self.window, 0, 0,
        )
        pseudo = src.to_bytes() + dst.to_bytes() + struct.pack(
            "!BBH", 0, PROTO_TCP, len(header) + len(self.payload)
        )
        checksum = internet_checksum(pseudo + header + self.payload)
        header = header[:16] + struct.pack("!H", checksum) + header[18:]
        return header + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "TCPSegment":
        if len(data) < 20:
            raise ParseError("tcp", "truncated TCP header "
                             f"({len(data)} of 20 bytes)", offset=len(data))
        sport, dport, seq, ack, offset_flags, flags, window, _csum, _urg = (
            struct.unpack("!HHIIBBHHH", data[:20])
        )
        header_len = (offset_flags >> 4) * 4
        if header_len < 20:
            raise ParseError("tcp", f"data offset below minimum "
                             f"({header_len} < 20)", offset=12)
        if header_len > len(data):
            raise ParseError("tcp", "options extend past segment end "
                             f"(data offset {header_len}, segment "
                             f"{len(data)})", offset=20)
        if header_len > 20:
            _validate_tcp_options(data[20:header_len])
        return cls(sport, dport, seq, ack, flags, window, data[header_len:])

    def __repr__(self) -> str:
        return (
            f"<TCP {self.sport}->{self.dport} {self.flag_string()} "
            f"seq={self.seq} ack={self.ack} len={len(self.payload)}>"
        )


class UDPDatagram:
    """A UDP datagram; a plain value object like :class:`TCPSegment`."""

    __slots__ = ("sport", "dport", "payload")

    def __init__(self, sport: int, dport: int, payload: bytes = b"") -> None:
        self.sport = sport
        self.dport = dport
        self.payload = payload

    def copy(self) -> "UDPDatagram":
        return UDPDatagram(self.sport, self.dport, self.payload)

    def rebind(self, sport: int, dport: int) -> "UDPDatagram":
        """New datagram with this payload under translated ports."""
        return UDPDatagram(sport, dport, self.payload)

    def to_bytes(self, src: IPv4Address, dst: IPv4Address) -> bytes:
        length = 8 + len(self.payload)
        header = struct.pack("!HHHH", self.sport, self.dport, length, 0)
        pseudo = src.to_bytes() + dst.to_bytes() + struct.pack(
            "!BBH", 0, PROTO_UDP, length
        )
        checksum = internet_checksum(pseudo + header + self.payload)
        if checksum == 0:
            checksum = 0xFFFF
        return header[:6] + struct.pack("!H", checksum) + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "UDPDatagram":
        if len(data) < 8:
            raise ParseError("udp", "truncated UDP header "
                             f"({len(data)} of 8 bytes)", offset=len(data))
        sport, dport, length, _csum = struct.unpack("!HHHH", data[:8])
        if length < 8:
            # Snapping a capture never alters the length *field*, so a
            # value below the fixed header size is always a lie.
            raise ParseError("udp", f"length field below header size "
                             f"({length} < 8)", offset=4)
        # length > len(data) is tolerated: indistinguishable from a
        # frame snapped inside the payload (see capture.write_pcap).
        return cls(sport, dport, data[8:length])

    def __repr__(self) -> str:
        return f"<UDP {self.sport}->{self.dport} len={len(self.payload)}>"


TransportPayload = Union[TCPSegment, UDPDatagram, bytes]

#: Memoized checksummed IPv4 headers, keyed by the six header fields
#: they derive from.  Bounded so adversarial ident churn can't grow it.
_IPV4_HEADER_MEMO: Dict[Tuple[int, int, int, int, int, int], bytes] = {}
_IPV4_HEADER_MEMO_MAX = 8192


def checksummed_ipv4_header(src: IPv4Address, dst: IPv4Address, proto: int,
                            ttl: int, ident: int, total_len: int) -> bytes:
    """The 20-byte checksummed IPv4 header for the given fields.

    Shared (and memoized) between IPv4Packet.to_bytes and the batched
    serializer: a run of same-flow packets with equal payload lengths
    pays the pack + checksum exactly once.
    """
    key = (src.value, dst.value, proto, ttl, ident, total_len)
    header = _IPV4_HEADER_MEMO.get(key)
    if header is None:
        header = struct.pack(
            "!BBHHHBBH4s4s",
            (4 << 4) | 5,  # version 4, IHL 5
            0, total_len, ident, 0,
            ttl, proto, 0,
            src.to_bytes(), dst.to_bytes(),
        )
        checksum = internet_checksum(header)
        header = header[:10] + struct.pack("!H", checksum) + header[12:]
        if len(_IPV4_HEADER_MEMO) < _IPV4_HEADER_MEMO_MAX:
            _IPV4_HEADER_MEMO[key] = header
    return header


class IPv4Packet:
    """An IPv4 packet carrying TCP, UDP, or opaque bytes."""

    __slots__ = ("src", "dst", "proto", "ttl", "ident", "payload")

    def __init__(
        self,
        src: IPv4Address,
        dst: IPv4Address,
        payload: TransportPayload,
        proto: Optional[int] = None,
        ttl: int = 64,
        ident: int = 0,
    ) -> None:
        # Canonical instances (the per-packet case) skip the coercing
        # constructor; anything else is validated by it.
        self.src = src if type(src) is IPv4Address else IPv4Address(src)
        self.dst = dst if type(dst) is IPv4Address else IPv4Address(dst)
        if proto is None:
            if isinstance(payload, TCPSegment):
                proto = PROTO_TCP
            elif isinstance(payload, UDPDatagram):
                proto = PROTO_UDP
            else:
                raise ValueError("proto required for opaque payload")
        self.proto = proto
        self.ttl = ttl
        self.ident = ident
        self.payload = payload

    @classmethod
    def wrap(cls, src: IPv4Address, dst: IPv4Address,
             payload: TransportPayload, proto: int) -> "IPv4Packet":
        """Fast construction from already-canonical addresses and an
        explicit protocol — skips __init__'s re-validation."""
        packet = object.__new__(cls)
        packet.src = src
        packet.dst = dst
        packet.proto = proto
        packet.ttl = 64
        packet.ident = 0
        packet.payload = payload
        return packet

    @property
    def tcp(self) -> TCPSegment:
        if not isinstance(self.payload, TCPSegment):
            raise TypeError("payload is not TCP")
        return self.payload

    @property
    def udp(self) -> UDPDatagram:
        if not isinstance(self.payload, UDPDatagram):
            raise TypeError("payload is not UDP")
        return self.payload

    def copy(self) -> "IPv4Packet":
        payload = self.payload
        if isinstance(payload, (TCPSegment, UDPDatagram)):
            payload = payload.copy()
        # Direct slot clone: skips __init__'s address re-validation and
        # proto sniffing (both already canonical on an existing packet).
        clone = object.__new__(IPv4Packet)
        clone.src = self.src
        clone.dst = self.dst
        clone.proto = self.proto
        clone.ttl = self.ttl
        clone.ident = self.ident
        clone.payload = payload
        return clone

    def to_bytes(self) -> bytes:
        if isinstance(self.payload, (TCPSegment, UDPDatagram)):
            body = self.payload.to_bytes(self.src, self.dst)
        else:
            body = bytes(self.payload)
        # The checksummed header is a pure function of six fields;
        # checksummed_ipv4_header memoizes so repeated flows skip the
        # pack + checksum.
        header = checksummed_ipv4_header(self.src, self.dst, self.proto,
                                         self.ttl, self.ident,
                                         20 + len(body))
        return header + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Packet":
        if len(data) < 20:
            raise ParseError("ipv4", "truncated IPv4 header "
                             f"({len(data)} of 20 bytes)", offset=len(data))
        (ver_ihl, _tos, total_len, ident, _frag, ttl, proto, _csum,
         src_raw, dst_raw) = struct.unpack("!BBHHHBBH4s4s", data[:20])
        if ver_ihl >> 4 != 4:
            raise ParseError("ipv4", f"not IPv4 (version {ver_ihl >> 4})",
                             offset=0)
        header_len = (ver_ihl & 0xF) * 4
        if header_len < 20:
            raise ParseError("ipv4", f"IHL below minimum "
                             f"({header_len} < 20)", offset=0)
        if header_len > len(data):
            raise ParseError("ipv4", "IHL extends past packet end "
                             f"({header_len} > {len(data)})", offset=0)
        if total_len < header_len:
            # Like UDP's length field, snapping never shrinks total_len:
            # a value below the header length is always hostile.
            raise ParseError("ipv4", f"total length below header length "
                             f"({total_len} < {header_len})", offset=2)
        # total_len > len(data) is tolerated (frame snapped in payload).
        body = data[header_len:total_len]
        src = IPv4Address.from_bytes(src_raw)
        dst = IPv4Address.from_bytes(dst_raw)
        payload: TransportPayload
        if proto == PROTO_TCP:
            payload = TCPSegment.from_bytes(body)
        elif proto == PROTO_UDP:
            payload = UDPDatagram.from_bytes(body)
        else:
            payload = body
        return cls(src, dst, payload, proto, ttl, ident)

    def __repr__(self) -> str:
        return f"<IPv4 {self.src}->{self.dst} proto={self.proto} {self.payload!r}>"


class EthernetFrame:
    """An Ethernet frame, optionally 802.1Q tagged.

    The inmate network hangs per-inmate isolation on the VLAN tag — in
    GQ the VLAN ID *is* the inmate identity — so the tag is a first-class
    attribute rather than a header afterthought.
    """

    __slots__ = ("src", "dst", "vlan", "ethertype", "payload")

    def __init__(
        self,
        src: MacAddress,
        dst: MacAddress,
        payload: Union[IPv4Packet, bytes],
        vlan: Optional[int] = None,
        ethertype: int = ETHERTYPE_IPV4,
    ) -> None:
        self.src = src if type(src) is MacAddress else MacAddress(src)
        self.dst = dst if type(dst) is MacAddress else MacAddress(dst)
        if vlan is not None and not 1 <= vlan <= 4094:
            raise ValueError(f"VLAN ID out of 802.1Q range: {vlan}")
        self.vlan = vlan
        self.ethertype = ethertype
        self.payload = payload

    @property
    def ip(self) -> IPv4Packet:
        if not isinstance(self.payload, IPv4Packet):
            raise TypeError("payload is not IPv4")
        return self.payload

    def copy(self) -> "EthernetFrame":
        payload = self.payload
        if isinstance(payload, IPv4Packet):
            payload = payload.copy()
        clone = object.__new__(EthernetFrame)
        clone.src = self.src
        clone.dst = self.dst
        clone.vlan = self.vlan
        clone.ethertype = self.ethertype
        clone.payload = payload
        return clone

    def to_bytes(self) -> bytes:
        if isinstance(self.payload, IPv4Packet):
            body = self.payload.to_bytes()
        else:
            body = bytes(self.payload)
        header = self.dst.to_bytes() + self.src.to_bytes()
        if self.vlan is not None:
            header += struct.pack("!HH", ETHERTYPE_VLAN, self.vlan & 0x0FFF)
        header += struct.pack("!H", self.ethertype)
        return header + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "EthernetFrame":
        if len(data) < 14:
            raise ParseError("ethernet", "truncated Ethernet header "
                             f"({len(data)} of 14 bytes)", offset=len(data))
        dst = MacAddress.from_bytes(data[0:6])
        src = MacAddress.from_bytes(data[6:12])
        (ethertype,) = struct.unpack("!H", data[12:14])
        vlan = None
        offset = 14
        if ethertype == ETHERTYPE_VLAN:
            if len(data) < 18:
                raise ParseError("ethernet", "truncated 802.1Q tag "
                                 f"({len(data)} of 18 bytes)", offset=14)
            (tci, ethertype) = struct.unpack("!HH", data[14:18])
            vlan = tci & 0x0FFF
            if vlan == 0:
                vlan = None  # priority tag: VID 0 means "no VLAN"
            elif vlan == 4095:
                raise ParseError("ethernet", "reserved VLAN ID 4095",
                                 offset=14)
            offset = 18
        body = data[offset:]
        payload: Union[IPv4Packet, bytes]
        if ethertype == ETHERTYPE_IPV4:
            payload = IPv4Packet.from_bytes(body)
        else:
            payload = body
        return cls(src, dst, payload, vlan, ethertype)

    def __repr__(self) -> str:
        tag = f" vlan={self.vlan}" if self.vlan is not None else ""
        return f"<Eth {self.src}->{self.dst}{tag} {self.payload!r}>"
