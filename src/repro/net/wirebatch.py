"""Struct-of-arrays wire batches for the batched table datapath.

A :class:`WireBatch` holds N transport packets as parallel columns —
addresses, ports, sequence fields, flags, and payload *offsets* into
one shared byte buffer — instead of N trees of Python objects.  The
router's :meth:`~repro.gateway.router.SubfarmRouter.ingest_batch`
walks the key column for runs of same-flow packets, applies the
matching flow-table entry's translation vectorized over the run's
columns, and appends the results to a :class:`BatchOutput`, which
serializes each run in one pass: the per-run invariant bytes
(pseudo-header, flags/window fields, payload) are checksummed once and
only the per-packet seq/ack words are folded in per row.  One's-
complement addition is associative, so the wire bytes are bit-identical
to serializing every packet individually through
``TCPSegment.to_bytes`` — asserted by the bench's determinism gate.

The batch layer never touches containment state: rows whose key misses
the flow table (or whose run an entry declines) are materialized back
into packet objects and fall through the ordinary slow path.
"""

from __future__ import annotations

import struct
from array import array
from typing import Dict, List, Tuple

from repro.net.addresses import IPv4Address
from repro.net.packet import (
    IPv4Packet,
    PROTO_TCP,
    PROTO_UDP,
    TCPSegment,
    UDPDatagram,
    checksummed_ipv4_header,
    fold_checksum,
    ones_complement_sum,
)

#: Where a row entered the gateway — decides which slow path a
#: table-miss row falls back to.
ORIGIN_INMATE = 0
ORIGIN_UPSTREAM = 1

_PACK_SEQ_ACK = struct.Struct("!II")
_PACK_CSUM = struct.Struct("!H")
_TCP_HDR = struct.Struct("!HHIIBBHHH")
_UDP_HDR = struct.Struct("!HHHH")
_PSEUDO = struct.Struct("!BBH")


class WireBatch:
    """N packets as parallel columns plus a shared payload buffer."""

    __slots__ = ("keys", "src", "dst", "sport", "dport", "seq", "ack",
                 "flags", "window", "proto", "origin", "vlan",
                 "pay_off", "pay_len", "pay_obj", "buf")

    def __init__(self) -> None:
        self.keys: List[tuple] = []       # probe keys (int 5-tuples)
        self.src = array("Q")
        self.dst = array("Q")
        self.sport = array("L")
        self.dport = array("L")
        self.seq = array("Q")
        self.ack = array("Q")
        self.flags = array("L")
        self.window = array("L")
        self.proto = array("B")
        self.origin = array("B")
        self.vlan = array("l")            # -1 for non-inmate rows
        self.pay_off = array("l")
        self.pay_len = array("l")
        self.pay_obj: List[bytes] = []    # zero-copy payload refs
        self.buf = bytearray()

    def __len__(self) -> int:
        return len(self.keys)

    def append_tcp(self, src: int, sport: int, dst: int, dport: int,
                   seq: int, ack: int, flags: int, window: int,
                   payload: bytes, origin: int = ORIGIN_INMATE,
                   vlan: int = -1) -> None:
        self.keys.append((src, sport, dst, dport, PROTO_TCP))
        self.src.append(src)
        self.dst.append(dst)
        self.sport.append(sport)
        self.dport.append(dport)
        self.seq.append(seq)
        self.ack.append(ack)
        self.flags.append(flags)
        self.window.append(window)
        self.proto.append(PROTO_TCP)
        self.origin.append(origin)
        self.vlan.append(vlan)
        self.pay_off.append(len(self.buf))
        self.pay_len.append(len(payload))
        self.pay_obj.append(payload)
        self.buf += payload

    def append_udp(self, src: int, sport: int, dst: int, dport: int,
                   payload: bytes, origin: int = ORIGIN_INMATE,
                   vlan: int = -1) -> None:
        self.keys.append((src, sport, dst, dport, PROTO_UDP))
        self.src.append(src)
        self.dst.append(dst)
        self.sport.append(sport)
        self.dport.append(dport)
        self.seq.append(0)
        self.ack.append(0)
        self.flags.append(0)
        self.window.append(0)
        self.proto.append(PROTO_UDP)
        self.origin.append(origin)
        self.vlan.append(vlan)
        self.pay_off.append(len(self.buf))
        self.pay_len.append(len(payload))
        self.pay_obj.append(payload)
        self.buf += payload

    def append_packet(self, packet: IPv4Packet,
                      origin: int = ORIGIN_INMATE, vlan: int = -1) -> None:
        """Decompose an object-form packet into columns."""
        transport = packet.payload
        if packet.proto == PROTO_TCP:
            self.append_tcp(packet.src.value, transport.sport,
                            packet.dst.value, transport.dport,
                            transport.seq, transport.ack, transport.flags,
                            transport.window, transport.payload,
                            origin=origin, vlan=vlan)
        else:
            self.append_udp(packet.src.value, transport.sport,
                            packet.dst.value, transport.dport,
                            transport.payload, origin=origin, vlan=vlan)

    def materialize(self, row: int) -> IPv4Packet:
        """Rebuild row ``row`` as an IPv4Packet for slow-path fallback."""
        proto = self.proto[row]
        payload = self.pay_obj[row]
        if proto == PROTO_TCP:
            transport = TCPSegment(self.sport[row], self.dport[row],
                                   self.seq[row], self.ack[row],
                                   self.flags[row], self.window[row],
                                   payload)
        else:
            transport = UDPDatagram(self.sport[row], self.dport[row],
                                    payload)
        return IPv4Packet.wrap(IPv4Address(self.src[row]),
                               IPv4Address(self.dst[row]),
                               transport, proto)


class BatchOutput:
    """Translated rows grouped by run, awaiting one serialization pass.

    Each run shares its emission channel, addressing, ports, and proto;
    only seq/ack/flags/window/payload vary per row.  Slow-path fallback
    emissions are captured as singleton object runs so row order across
    the whole batch is preserved exactly.
    """

    __slots__ = ("runs",)

    def __init__(self) -> None:
        # (emit_code, emit_arg, proto, src, dst, sport, dport,
        #  seqs, acks, flags, windows, payloads, packets)
        self.runs: List[tuple] = []

    def rows(self) -> int:
        return sum(len(run[11]) if run[12] is None else len(run[12])
                   for run in self.runs)

    def append_run(self, emit_code: int, emit_arg, proto: int,
                   src: IPv4Address, dst: IPv4Address, sport: int,
                   dport: int, seqs, acks, flags, windows,
                   payloads) -> None:
        self.runs.append((emit_code, emit_arg, proto, src, dst, sport,
                          dport, seqs, acks, flags, windows, payloads,
                          None))

    def append_packet(self, emit_code: int, emit_arg,
                      packet: IPv4Packet) -> None:
        self.runs.append((emit_code, emit_arg, packet.proto, None, None,
                          0, 0, None, None, None, None, None, [packet]))

    def serialize(self) -> List[Tuple[int, object, bytes]]:
        """One (emit_code, emit_arg, wire_bytes) tuple per row, in
        emission order, checksummed per-run where possible."""
        wires: List[Tuple[int, object, bytes]] = []
        for (code, arg, proto, src, dst, sport, dport, seqs, acks,
             flags, windows, payloads, packets) in self.runs:
            if packets is not None:
                for packet in packets:
                    wires.append((code, arg, packet.to_bytes()))
            elif proto == PROTO_TCP:
                for wire in serialize_tcp_rows(src, dst, sport, dport,
                                               seqs, acks, flags,
                                               windows, payloads):
                    wires.append((code, arg, wire))
            else:
                for wire in serialize_udp_rows(src, dst, sport, dport,
                                               payloads):
                    wires.append((code, arg, wire))
        return wires

    def by_channel(self) -> Dict[int, List[bytes]]:
        """Wire bytes per emission channel, order preserved within each
        channel — directly comparable to scalar capture lists."""
        channels: Dict[int, List[bytes]] = {}
        for code, _arg, wire in self.serialize():
            channels.setdefault(code, []).append(wire)
        return channels


def serialize_tcp_rows(src: IPv4Address, dst: IPv4Address, sport: int,
                       dport: int, seqs, acks, flags, windows,
                       payloads) -> List[bytes]:
    """Serialize a run of TCP rows sharing addressing and ports.

    Consecutive rows with equal (flags, window, payload) share one
    pseudo-header + zero-seq/ack header + payload checksum base and one
    memoized IPv4 header; each row then folds in only its four seq/ack
    words.  Rows breaking the group degrade gracefully: a new base is
    computed and amortization resumes.
    """
    wires: List[bytes] = []
    src_b = src.to_bytes()
    dst_b = dst.to_bytes()
    base = None
    group_key = None
    template = None
    ip_header = b""
    for row in range(len(seqs)):
        flag = flags[row]
        window = windows[row]
        payload = payloads[row]
        key = (flag, window, id(payload))
        if key != group_key:
            if group_key is not None and flag == group_key[0] \
                    and window == group_key[1] \
                    and payload == payloads[row - 1]:
                # Equal bytes under a different object: same base.
                group_key = key
            else:
                group_key = key
                seg_len = 20 + len(payload)
                header = _TCP_HDR.pack(sport, dport, 0, 0, 5 << 4, flag,
                                       window, 0, 0)
                pseudo = src_b + dst_b + _PSEUDO.pack(0, PROTO_TCP,
                                                      seg_len)
                base = ones_complement_sum(pseudo + header + payload)
                template = bytearray(header)
                ip_header = checksummed_ipv4_header(src, dst, PROTO_TCP,
                                                    64, 0, 20 + seg_len)
        seq = seqs[row]
        ack = acks[row]
        checksum = fold_checksum(base + (seq >> 16) + (seq & 0xFFFF)
                                 + (ack >> 16) + (ack & 0xFFFF))
        _PACK_SEQ_ACK.pack_into(template, 4, seq, ack)
        _PACK_CSUM.pack_into(template, 16, checksum)
        wires.append(ip_header + template + payload)
    return wires


def serialize_udp_rows(src: IPv4Address, dst: IPv4Address, sport: int,
                       dport: int, payloads) -> List[bytes]:
    """Serialize a run of UDP rows sharing addressing and ports.

    Same amortization as the TCP path — UDP headers carry no per-row
    fields at all, so a group of equal payloads serializes once and is
    reused by reference.
    """
    wires: List[bytes] = []
    src_b = src.to_bytes()
    dst_b = dst.to_bytes()
    group_payload = None
    wire = b""
    for payload in payloads:
        if group_payload is None or (payload is not group_payload
                                     and payload != group_payload):
            group_payload = payload
            length = 8 + len(payload)
            header = _UDP_HDR.pack(sport, dport, length, 0)
            pseudo = src_b + dst_b + _PSEUDO.pack(0, PROTO_UDP, length)
            checksum = fold_checksum(
                ones_complement_sum(pseudo + header + payload))
            if checksum == 0:
                checksum = 0xFFFF
            wire = (checksummed_ipv4_header(src, dst, PROTO_UDP, 64, 0,
                                            20 + length)
                    + header[:6] + _PACK_CSUM.pack(checksum) + payload)
        wires.append(wire)
    return wires
