"""Trace capture: selection, reassembly, pcap interoperability."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.addresses import IPv4Address, IPv4Network, MacAddress
from repro.net.arp import ETHERTYPE_ARP, ArpMessage
from repro.net.capture import PacketTrace, TraceRecord, read_pcap, write_pcap
from repro.net.flow import FiveTuple
from repro.net.host import Host
from repro.net.link import Link, Port, PortMode, Switch
from repro.net.packet import (
    ACK,
    EthernetFrame,
    IPv4Packet,
    PROTO_TCP,
    SYN,
    TCPSegment,
    UDPDatagram,
)
from repro.net.router import Router
from repro.sim.engine import Simulator

MAC_A = MacAddress("02:00:00:00:00:0a")
MAC_B = MacAddress("02:00:00:00:00:0b")
IP_A = IPv4Address("10.0.0.1")
IP_B = IPv4Address("10.0.0.2")


def frame(transport, vlan=None, src=IP_A, dst=IP_B):
    return EthernetFrame(MAC_A, MAC_B, IPv4Packet(src, dst, transport),
                         vlan=vlan)


class TestSelection:
    def build(self):
        trace = PacketTrace()
        trace.capture(1.0, frame(TCPSegment(1000, 80, flags=SYN), vlan=5),
                      point="inmate")
        trace.capture(2.0, frame(UDPDatagram(53, 53, b"q"), vlan=5),
                      point="inmate")
        trace.capture(3.0, frame(TCPSegment(1001, 25, flags=SYN), vlan=6),
                      point="inmate")
        trace.capture(4.0, frame(TCPSegment(1000, 80, flags=SYN)),
                      point="upstream-out")
        return trace

    def test_by_point(self):
        trace = self.build()
        assert len(trace.select(point="inmate")) == 3
        assert len(trace.select(point="upstream-out")) == 1

    def test_by_vlan(self):
        trace = self.build()
        assert len(trace.select(vlan=5)) == 2
        assert len(trace.select(vlan=6)) == 1

    def test_by_proto_and_port(self):
        trace = self.build()
        assert len(trace.select(proto=PROTO_TCP)) == 3
        assert len(trace.select(dport=25)) == 1

    def test_capture_is_deep_copy(self):
        trace = PacketTrace()
        original = frame(TCPSegment(1, 2, seq=5, flags=SYN))
        trace.capture(0.0, original, point="x")
        original.ip.tcp.seq = 999  # mutate after capture
        assert trace.records[0].ip.tcp.seq == 5

    def test_flows_first_seen_orientation(self):
        trace = PacketTrace()
        trace.capture(1.0, frame(TCPSegment(1000, 80, flags=SYN)))
        trace.capture(2.0, frame(TCPSegment(80, 1000, flags=SYN | ACK),
                                 src=IP_B, dst=IP_A))
        flows = trace.flows()
        assert len(flows) == 1
        assert flows[0].orig_port == 1000


class TestPayloadReassembly:
    def test_in_order_payload(self):
        trace = PacketTrace()
        key = FiveTuple(IP_A, 1000, IP_B, 80, PROTO_TCP)
        trace.capture(1.0, frame(TCPSegment(1000, 80, seq=100, flags=ACK,
                                            payload=b"hello ")))
        trace.capture(2.0, frame(TCPSegment(1000, 80, seq=106, flags=ACK,
                                            payload=b"world")))
        assert trace.tcp_payload(key, "orig") == b"hello world"

    def test_duplicates_ignored(self):
        trace = PacketTrace()
        key = FiveTuple(IP_A, 1000, IP_B, 80, PROTO_TCP)
        segment = TCPSegment(1000, 80, seq=100, flags=ACK, payload=b"dup")
        trace.capture(1.0, frame(segment))
        trace.capture(2.0, frame(segment.copy()))
        assert trace.tcp_payload(key, "orig") == b"dup"

    def test_directions_separate(self):
        trace = PacketTrace()
        key = FiveTuple(IP_A, 1000, IP_B, 80, PROTO_TCP)
        trace.capture(1.0, frame(TCPSegment(1000, 80, seq=1, flags=ACK,
                                            payload=b"request")))
        trace.capture(2.0, frame(TCPSegment(80, 1000, seq=1, flags=ACK,
                                            payload=b"response"),
                                 src=IP_B, dst=IP_A))
        assert trace.tcp_payload(key, "orig") == b"request"
        assert trace.tcp_payload(key, "resp") == b"response"


class TestPcap:
    def test_round_trip_through_file(self, tmp_path):
        trace = PacketTrace()
        trace.capture(1.25, frame(TCPSegment(1000, 80, seq=7, flags=SYN),
                                  vlan=12))
        trace.capture(2.5, frame(UDPDatagram(53, 53, b"query"), vlan=12))
        path = tmp_path / "capture.pcap"
        written = write_pcap(str(path), trace.records)
        assert written == 2

        records = read_pcap(str(path))
        assert len(records) == 2
        assert records[0].frame.vlan == 12
        assert records[0].ip.tcp.seq == 7
        assert records[1].ip.udp.payload == b"query"
        assert records[0].timestamp == pytest.approx(1.25, abs=1e-5)

    def test_magic_validated(self, tmp_path):
        path = tmp_path / "bogus.pcap"
        path.write_bytes(b"\x00" * 40)
        with pytest.raises(ValueError):
            read_pcap(str(path))

    def test_real_farm_trace_exports(self, tmp_path):
        """The Figure 5 run exports to a genuine pcap file."""
        from repro.experiments.figure5 import run_figure5
        from repro.farm import Farm  # noqa: F401  (doc import)

        # Reuse the ladder scenario's farm via the experiment module.
        result = run_figure5(seed=9, duration=60.0)
        assert result.seq_bump_observed  # scenario sanity


class TestPcapSnaplen:
    def test_snapped_record_keeps_wire_length(self, tmp_path):
        """incl_len records stored bytes, orig_len the wire length —
        exactly libpcap's contract for frames longer than snaplen."""
        import struct

        trace = PacketTrace()
        trace.capture(1.0, frame(TCPSegment(1000, 80, flags=SYN,
                                            payload=b"X" * 400)))
        path = tmp_path / "snap.pcap"
        write_pcap(str(path), trace.records, snaplen=64)

        raw = path.read_bytes()
        snaplen_field = struct.unpack("!I", raw[16:20])[0]
        assert snaplen_field == 64
        seconds, micros, incl_len, orig_len = struct.unpack(
            "!IIII", raw[24:40])
        assert incl_len == 64
        assert orig_len > 64
        # The record body really is 64 bytes — file ends right after.
        assert len(raw) == 24 + 16 + 64

    def test_deeply_snapped_records_skipped_on_read(self, tmp_path):
        """A reader must not crash on snapped frames: ones cut beyond
        parseability are skipped, parseable ones still come back."""
        trace = PacketTrace()
        trace.capture(1.0, frame(TCPSegment(1000, 80, flags=SYN,
                                            payload=b"Y" * 400)))
        path = tmp_path / "deep.pcap"
        # snaplen=16 cuts into the IP header: nothing to parse.
        assert write_pcap(str(path), trace.records, snaplen=16) == 1
        assert read_pcap(str(path)) == []

    def test_snapped_payload_keeps_parseable_headers(self, tmp_path):
        """Snapping inside the TCP payload leaves the headers intact —
        the record reads back with a truncated payload, not an error."""
        trace = PacketTrace()
        trace.capture(1.0, frame(TCPSegment(1000, 80, flags=SYN,
                                            payload=b"Y" * 400)))
        trace.capture(2.0, frame(TCPSegment(1001, 25, flags=SYN)))
        path = tmp_path / "mixed.pcap"
        assert write_pcap(str(path), trace.records, snaplen=64) == 2

        records = read_pcap(str(path))
        assert len(records) == 2
        assert len(records[0].ip.tcp.payload) < 400
        assert records[1].ip.tcp.dport == 25

    def test_full_frames_unaffected_by_snaplen(self, tmp_path):
        trace = PacketTrace()
        trace.capture(1.0, frame(UDPDatagram(53, 53, b"q")))
        path = tmp_path / "fits.pcap"
        write_pcap(str(path), trace.records, snaplen=65535)
        records = read_pcap(str(path))
        assert len(records) == 1
        assert records[0].ip.udp.payload == b"q"

    def test_snaplen_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            write_pcap(str(tmp_path / "bad.pcap"), [], snaplen=0)


class TestPcapTimestamps:
    def test_sub_microsecond_rounds_carry_into_seconds(self, tmp_path):
        """t = 3.9999999 rounds to 4.000000, never to an out-of-range
        microseconds field of 1_000_000."""
        import struct

        trace = PacketTrace()
        trace.capture(3.9999999, frame(UDPDatagram(53, 53, b"q")))
        path = tmp_path / "carry.pcap"
        write_pcap(str(path), trace.records)

        raw = path.read_bytes()
        seconds, micros = struct.unpack("!II", raw[24:32])
        assert (seconds, micros) == (4, 0)

        records = read_pcap(str(path))
        assert records[0].timestamp == pytest.approx(4.0, abs=1e-9)

    def test_round_trip_preserves_microsecond_precision(self, tmp_path):
        trace = PacketTrace()
        times = [0.0, 1.25, 2.000001, 1234.999999]
        for t in times:
            trace.capture(t, frame(UDPDatagram(53, 53, b"q")))
        path = tmp_path / "precise.pcap"
        write_pcap(str(path), trace.records)

        records = read_pcap(str(path))
        assert len(records) == len(times)
        for record, t in zip(records, times):
            assert record.timestamp == pytest.approx(t, abs=1e-6)

    def test_truncated_record_body_is_an_error(self, tmp_path):
        trace = PacketTrace()
        trace.capture(1.0, frame(UDPDatagram(53, 53, b"q")))
        path = tmp_path / "cut.pcap"
        write_pcap(str(path), trace.records)
        raw = path.read_bytes()
        (tmp_path / "cut.pcap").write_bytes(raw[:-5])

        with pytest.raises(ValueError, match="truncated pcap record"):
            read_pcap(str(path))


# ----------------------------------------------------------------------
# By-value rows: a capture is the bytes at the capture instant
# ----------------------------------------------------------------------
class ListTrace:
    """The deep-copy design the packed store replaced — a list of records
    each holding ``frame.copy()`` — kept as the reference the view and
    the column queries must agree with."""

    def __init__(self, max_records=None):
        self.max_records = max_records
        self.records = []
        self.rotated_out = 0
        self.observed = []

    def capture(self, timestamp, frame, point=""):
        record = TraceRecord(timestamp, frame.copy(), point)
        self.observed.append(record)
        self.records.append(record)
        if self.max_records is not None \
                and len(self.records) > self.max_records:
            overflow = len(self.records) - self.max_records
            del self.records[:overflow]
            self.rotated_out += overflow

    def select(self, point=None, vlan=None, proto=None, dport=None):
        out = []
        for record in self.records:
            ip = record.ip
            transport = getattr(ip, "payload", None)
            if point is not None and record.point != point:
                continue
            if vlan is not None and record.frame.vlan != vlan:
                continue
            if proto is not None and (ip is None or ip.proto != proto):
                continue
            if dport is not None and getattr(transport, "dport",
                                             None) != dport:
                continue
            out.append(record)
        return out

    def flows(self):
        seen = {}
        for record in self.records:
            key = record.five_tuple
            if key is not None and key not in seen \
                    and key.reversed() not in seen:
                seen[key] = True
        return list(seen)

    def tcp_payload(self, flow, direction):
        chunks = {}
        for record in self.records:
            ip = record.ip
            if ip is None or ip.proto != PROTO_TCP:
                continue
            match = flow.matches_packet(ip)
            if match is not None and match.value == direction \
                    and ip.tcp.payload:
                chunks.setdefault(ip.tcp.seq, ip.tcp.payload)
        return b"".join(chunks[seq] for seq in sorted(chunks))


def wire(records):
    return [(r.timestamp, r.point, r.frame.to_bytes()) for r in records]


macs = st.integers(min_value=0, max_value=0xFFFFFFFFFFFF).map(MacAddress)
ips = st.sampled_from([IP_A, IP_B, IPv4Address("192.0.2.7")])
ports = st.sampled_from([25, 80, 1000, 1001])
words = st.integers(min_value=0, max_value=0xFFFF)
seqs = st.integers(min_value=0, max_value=0xFFFFFFFF)
vlans = st.one_of(st.none(), st.sampled_from([5, 6]))
blobs = st.binary(max_size=32)


@st.composite
def frames(draw):
    """TCP, UDP (bytes or bytearray payload), opaque IPv4, or ARP."""
    kind = draw(st.sampled_from(["tcp", "udp", "bytearray", "opaque",
                                 "arp"]))
    src_mac, dst_mac, vlan = draw(macs), draw(macs), draw(vlans)
    if kind == "arp":
        message = ArpMessage.request(src_mac, draw(ips), draw(ips))
        return EthernetFrame(src_mac, dst_mac, message.to_bytes(),
                             vlan=vlan, ethertype=ETHERTYPE_ARP)
    proto = None
    if kind == "tcp":
        transport = TCPSegment(draw(ports), draw(ports), draw(seqs),
                               draw(seqs), draw(st.integers(0, 0x1F)),
                               draw(words), draw(blobs))
    elif kind == "udp":
        transport = UDPDatagram(draw(ports), draw(ports), draw(blobs))
    elif kind == "bytearray":
        transport = TCPSegment(draw(ports), draw(ports), draw(seqs),
                               payload=bytearray(draw(blobs)))
    else:
        transport, proto = draw(blobs), 47
    packet = IPv4Packet(draw(ips), draw(ips), transport, proto=proto,
                        ttl=draw(st.integers(1, 255)), ident=draw(words))
    return EthernetFrame(src_mac, dst_mac, packet, vlan=vlan)


def scramble(frame):
    """Overwrite every field of a frame, its packet and its transport."""
    packet = frame.payload
    frame.src, frame.dst = MacAddress(1), MacAddress(2)
    frame.vlan, frame.ethertype = 99, 0x86DD
    frame.payload = b"gone"
    if isinstance(packet, IPv4Packet):
        transport = packet.payload
        packet.src = packet.dst = IPv4Address("203.0.113.1")
        packet.proto, packet.ttl, packet.ident = 99, 0, 0xFFFF
        packet.payload = b"gone"
        if isinstance(transport, TCPSegment):
            transport.seq, transport.ack = 0xDEAD, 0xBEEF
            transport.flags, transport.window = 0, 0
        if not isinstance(transport, bytes):
            transport.sport = transport.dport = 9
            transport.payload = b"gone"


class TestByValueRows:
    @settings(max_examples=200)
    @given(st.lists(frames(), min_size=1, max_size=6))
    def test_capture_survives_mutation_of_every_field(self, originals):
        trace = PacketTrace()
        expected = []
        for index, original in enumerate(originals):
            expected.append(original.to_bytes())
            trace.capture(float(index), original, point="p")
        for original in originals:
            scramble(original)
        assert [r.frame.to_bytes() for r in trace.records] == expected
        assert [r.timestamp for r in trace] == [
            float(i) for i in range(len(originals))]

    @settings(max_examples=100)
    @given(st.lists(st.tuples(frames(),
                              st.sampled_from(["inmate", "upstream-out"])),
                    max_size=12),
           st.one_of(st.none(), st.integers(min_value=1, max_value=8)))
    def test_agrees_with_list_of_copies(self, captures, max_records):
        trace = PacketTrace(max_records=max_records)
        reference = ListTrace(max_records=max_records)
        observed = []
        trace.subscribe(observed.append)
        # The drawn captures over and over, so that a bounded trace
        # runs to at least ten times its bound.
        laps = 1
        if max_records is not None and captures:
            laps = -(-10 * max_records // len(captures))
        for lap in range(laps):
            for index, (captured, point) in enumerate(captures):
                stamp = float(lap * len(captures) + index)
                trace.capture(stamp, captured, point=point)
                reference.capture(stamp, captured, point=point)

        assert wire(observed) == wire(reference.observed)
        assert trace.rotated_out == reference.rotated_out
        if max_records is None:
            assert trace.compactions == 0
        else:
            assert not captures or len(observed) >= 10 * max_records
            # The ring cuts its dead prefix once per bound's worth of
            # rotations, not once per capture.
            assert trace.compactions <= trace.rotated_out // (
                max_records + 1)
        records = trace.records
        assert len(records) == len(trace) == len(reference.records)
        assert bool(records) == bool(reference.records)
        assert wire(records) == wire(trace) == wire(reference.records)
        assert wire(records[1:4]) == wire(reference.records[1:4])
        assert wire(records[::-2]) == wire(reference.records[::-2])
        assert wire(reversed(records)) == wire(reversed(reference.records))
        if reference.records:
            assert wire([records[-1]]) == wire([reference.records[-1]])
        with pytest.raises(IndexError):
            records[len(reference.records)]

        for query in ({}, {"point": "inmate"}, {"vlan": 5},
                      {"proto": PROTO_TCP}, {"dport": 80},
                      {"point": "upstream-out", "vlan": 6, "proto": 17,
                       "dport": 25}):
            assert wire(trace.select(**query)) == wire(
                reference.select(**query)), query
        assert wire(trace.select(lambda r: r.frame.vlan is None)) == wire(
            r for r in reference.records if r.frame.vlan is None)
        assert trace.flows() == reference.flows()
        for flow in reference.flows():
            for direction in ("orig", "resp"):
                assert trace.tcp_payload(flow, direction) \
                    == reference.tcp_payload(flow, direction)

    def test_records_is_a_read_only_view(self):
        trace = PacketTrace()
        trace.capture(1.0, frame(TCPSegment(1000, 80, flags=SYN)))
        records = trace.records
        trace.capture(2.0, frame(UDPDatagram(53, 53, b"q")))
        assert len(records) == 2  # a view, not a snapshot
        assert not hasattr(records, "append")
        with pytest.raises(TypeError):
            records[0] = records[1]

    def test_tcp_udp_rows_are_invisible_to_the_cyclic_gc(self):
        """Capturing N TCP frames creates no per-row Python object, so
        there is nothing for the collector (or the allocator) to see."""
        trace = PacketTrace()
        captured = frame(TCPSegment(1000, 80, seq=7, flags=SYN,
                                    payload=b"x" * 64), vlan=5)
        trace.capture(1.0, captured, point="inmate")
        stamps = [float(index) for index in range(5000)]
        before = sys.getallocatedblocks()
        for stamp in stamps:
            trace.capture(stamp, captured, point="inmate")
        grown = sys.getallocatedblocks() - before
        # Two buffers that grow in place; a tuple row per capture (let
        # alone the floats and ints it kept alive) would be >= 5000.
        assert len(trace) == 5001 and grown < 50

    def test_only_fallback_rows_hold_a_frame(self):
        trace = PacketTrace()
        payload = b"x" * 64
        trace.capture(1.0, frame(TCPSegment(1000, 80, payload=payload)))
        trace.capture(2.0, frame(UDPDatagram(53, 53, b"q")))
        message = ArpMessage.request(MAC_A, IP_A, IP_B)
        trace.capture(3.0, EthernetFrame(MAC_A, MAC_B, message.to_bytes(),
                                         ethertype=ETHERTYPE_ARP))
        assert trace._payloads[0] is payload  # by reference, not copied
        assert [type(slot) for slot in trace._payloads] == [
            bytes, bytes, tuple]

    def test_bounded_capture_compacts_in_chunks(self):
        bound, captures = 100, 5000
        trace = PacketTrace(max_records=bound)
        captured = frame(TCPSegment(1000, 80, flags=SYN, payload=b"p"))
        for index in range(captures):
            trace.capture(float(index), captured)
        assert len(trace) == bound
        assert trace.rotated_out == captures - bound
        assert [r.timestamp for r in trace.records] == [
            float(i) for i in range(captures - bound, captures)]
        # Linear in chunks of the bound, not per capture (the store's
        # size is held in tests/test_capture_budget.py) ...
        assert 1 <= trace.compactions <= captures // bound
        # ... and a rotated-out payload is released at once.
        assert all(slot is None
                   for slot in trace._payloads[:trace._head])

    def test_lowering_the_bound_on_a_full_trace(self):
        trace = PacketTrace()
        for index in range(10):
            trace.capture(float(index), frame(UDPDatagram(53, 53, b"q")))
        trace.max_records = 3
        trace.capture(10.0, frame(UDPDatagram(53, 53, b"q")))
        assert trace.rotated_out == 8
        assert [r.timestamp for r in trace] == [8.0, 9.0, 10.0]
        trace.max_records = -1
        trace.capture(11.0, frame(UDPDatagram(53, 53, b"q")))
        assert len(trace) == 0 and trace.rotated_out == 12


# ----------------------------------------------------------------------
# The packed store: what fits the header, and what takes the fallback
# ----------------------------------------------------------------------
edge_macs = st.sampled_from([0, 1, 0xFFFFFFFFFFFF]).map(MacAddress)
edge_ips = st.sampled_from([0, 1, 0xFFFFFFFF]).map(IPv4Address)
edge16 = st.sampled_from([0, 1, 0xFFFF])
edge32 = st.sampled_from([0, 1, 0xFFFFFFFF])
edge_vlans = st.sampled_from([None, 0, 1, 4094, 4095])
edge_blobs = st.one_of(st.just(b""), st.binary(max_size=16))


@st.composite
def edge_frames(draw):
    """Plain TCP/UDP frames with fields at the ends of their ranges."""
    if draw(st.booleans()):
        transport = TCPSegment(draw(edge16), draw(edge16), draw(edge32),
                               draw(edge32), draw(st.sampled_from([0, 0xFF])),
                               draw(edge16), draw(edge_blobs))
    else:
        transport = UDPDatagram(draw(edge16), draw(edge16),
                                draw(edge_blobs))
    packet = IPv4Packet(draw(edge_ips), draw(edge_ips), transport,
                        ttl=draw(st.sampled_from([0, 255])),
                        ident=draw(edge16))
    built = EthernetFrame(draw(edge_macs), draw(edge_macs), packet,
                          ethertype=draw(st.sampled_from([0x0800, 0xFFFF])))
    built.vlan = draw(edge_vlans)  # 0 and 4095 are not constructible
    return built


class TestPackedStore:
    @settings(max_examples=200)
    @given(st.lists(edge_frames(), min_size=1, max_size=6))
    def test_edge_fields_round_trip_packed(self, originals):
        trace = PacketTrace()
        expected = []
        for index, original in enumerate(originals):
            expected.append((original.to_bytes(), original.vlan))
            trace.capture(index + 0.5, original, point="inmate")
        for original in originals:
            scramble(original)
        assert [(r.frame.to_bytes(), r.frame.vlan)
                for r in trace.records] == expected
        assert [r.timestamp for r in trace] == [
            i + 0.5 for i in range(len(originals))]
        # Every one of them fitted the header: no frame was copied.
        assert all(type(slot) is bytes for slot in trace._payloads)

    @pytest.mark.parametrize("spoil", [
        lambda f: setattr(f, "vlan", 0xFFFF),       # the untagged sentinel
        lambda f: setattr(f, "vlan", -1),
        lambda f: setattr(f, "vlan", 1 << 16),
        lambda f: setattr(f, "ethertype", 1 << 16),
        lambda f: setattr(f.ip, "ttl", 256),
        lambda f: setattr(f.ip, "ident", -1),
        lambda f: setattr(f.ip.payload, "sport", 1 << 16),
        lambda f: setattr(f.ip.payload, "seq", 1 << 32),
        lambda f: setattr(f.ip.payload, "ack", -1),
        lambda f: setattr(f.ip.payload, "flags", 0x100),
        lambda f: setattr(f.ip.payload, "window", 1 << 16),
        lambda f: setattr(f.ip.payload, "dport", None),
    ])
    def test_a_field_that_does_not_fit_takes_the_fallback(self, spoil):
        """Never a struct.error out of the datapath: the frame is
        stored as a copy, exactly as the fields stood."""
        original = frame(TCPSegment(1000, 80, seq=7, flags=SYN,
                                    payload=b"data"), vlan=5)
        spoil(original)
        trace = PacketTrace()
        trace.capture(1.0, original, point="inmate")
        expected = original.copy()
        scramble(original)
        (record,) = trace.records
        assert type(trace._payloads[0]) is tuple
        assert (record.timestamp, record.point) == (1.0, "inmate")
        stored, segment = record.frame, record.frame.ip.tcp
        assert (stored.vlan, stored.ethertype, stored.ip.ttl,
                stored.ip.ident) == (expected.vlan, expected.ethertype,
                                     expected.ip.ttl, expected.ip.ident)
        assert (segment.sport, segment.dport, segment.seq, segment.ack,
                segment.flags, segment.window, segment.payload) == (
            expected.ip.tcp.sport, expected.ip.tcp.dport,
            expected.ip.tcp.seq, expected.ip.tcp.ack,
            expected.ip.tcp.flags, expected.ip.tcp.window, b"data")

    def test_sentinel_vlan_round_trips_on_the_wire(self):
        original = frame(UDPDatagram(53, 53, b"q"), vlan=5)
        original.vlan = 0xFFFF
        trace = PacketTrace()
        trace.capture(1.0, original)
        assert trace.records[0].frame.to_bytes() == original.to_bytes()
        assert trace.select(vlan=0xFFFF) and not trace.select(vlan=5)

    def test_capture_points_beyond_the_code_space_fall_back(self):
        trace = PacketTrace()
        captured = frame(UDPDatagram(53, 53, b"q"))
        for index in range(300):
            trace.capture(float(index), captured, point=f"tap-{index}")
        assert [r.point for r in trace] == [
            f"tap-{index}" for index in range(300)]
        assert [type(slot) for slot in trace._payloads] == (
            [bytes] * 256 + [tuple] * 44)
        assert len(trace.select(point="tap-7")) == 1
        assert len(trace.select(point="tap-299")) == 1
        assert trace.select(point="never") == []

    def test_queries_read_columns_without_building_records(self):
        """Header-only filters build a record only for the rows the
        caller receives."""
        trace = PacketTrace()
        for index in range(50):
            trace.capture(float(index), frame(
                TCPSegment(1000 + index, 80, seq=index, flags=ACK,
                           payload=b"x"), vlan=5), point="inmate")
        trace.capture(99.0, frame(TCPSegment(7, 25, flags=SYN), vlan=6),
                      point="inmate")
        built = []
        build = trace._build
        trace._build = lambda fields, slot: built.append(1) or build(
            fields, slot)
        assert len(trace.select(vlan=6)) == 1
        assert len(trace.select(dport=25, proto=PROTO_TCP)) == 1
        assert len(built) == 2
        assert len(trace.flows()) == 51
        key = FiveTuple(IP_A, 1003, IP_B, 80, PROTO_TCP)
        assert trace.tcp_payload(key, "orig") == b"x"
        assert len(built) == 2

    def test_iterating_while_capturing(self):
        """``records`` is position-based like a list: a consumer may
        be part-way through while the farm keeps capturing."""
        trace = PacketTrace()
        captured = frame(UDPDatagram(53, 53, b"q"))
        trace.capture(0.0, captured)
        seen = []
        for record in trace.records:
            seen.append(record.timestamp)
            if len(seen) < 5:
                trace.capture(float(len(seen)), captured)
        assert seen == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_derived_host_macs_are_the_same_in_every_process():
    """Inmate-side rows store MACs by value, so a MAC derived from
    salted ``hash()`` would make the pcap differ per PYTHONHASHSEED."""
    assert Host._derive_mac("inmate-1") == MacAddress("02:e5:8e:4e:c8:87")


class Tap:
    """A device that keeps the frames it receives."""

    def __init__(self):
        self.port = Port(self)
        self.frames = []

    def receive_frame(self, received, port):
        self.frames.append(received)


class TestPacketOwnership:
    """A frame handed to ``Port.send`` is never mutated again, so the
    forwarding plane shares packets in place of copying them."""

    def test_flooded_frame_shares_one_packet(self):
        sim = Simulator(seed=1)
        switch = Switch(sim)
        taps = [Tap() for _ in range(3)]
        for tap in taps:
            Link(sim, tap.port, switch.attach_port(access_vlan=7))
        packet = IPv4Packet(IP_A, IP_B, UDPDatagram(68, 67, b"discover"))
        sent = EthernetFrame(MAC_A, MacAddress.broadcast(), packet)
        taps[0].port.send(sent)
        sim.run()
        (first,), (second,) = taps[1].frames, taps[2].frames
        assert first is not second and first is not sent
        assert first.payload is second.payload is packet
        assert first.to_bytes() == second.to_bytes() == sent.to_bytes()

    def test_trunk_egress_retags_a_header_of_its_own(self):
        sim = Simulator(seed=1)
        switch = Switch(sim)
        access, trunk = Tap(), Tap()
        Link(sim, access.port, switch.attach_port(access_vlan=7))
        Link(sim, trunk.port, switch.attach_port(mode=PortMode.TRUNK))
        sent = frame(TCPSegment(1000, 80, flags=SYN))
        access.port.send(sent)
        sim.run()
        assert trunk.frames[0].vlan == 7 and sent.vlan is None
        assert trunk.frames[0].payload is sent.payload

    def test_backbone_hop_leaves_the_senders_packet_alone(self):
        sim = Simulator(seed=1)
        backbone = Router(sim)
        sender, receiver = Tap(), Tap()
        Link(sim, sender.port, backbone.attach_port())
        out = backbone.attach_port()
        Link(sim, receiver.port, out)
        backbone.add_route(IPv4Network("10.0.0.2/32"), out)
        sent = frame(TCPSegment(1000, 80, flags=SYN))
        sender.port.send(sent)
        sim.run()
        forwarded = receiver.frames[0].ip
        assert sent.ip.ttl == 64 and forwarded.ttl == 63
        assert forwarded.payload is sent.ip.payload

    def test_service_nat_rewrites_leave_the_senders_packet_alone(self):
        from repro.farm import Farm, FarmConfig

        farm = Farm(FarmConfig(seed=3))
        sub = farm.create_subfarm("nat")
        probe = sub.add_service_host("probe")
        world = IPv4Address("198.51.100.9")
        query = IPv4Packet(probe.ip, world, UDPDatagram(5000, 53, b"q"))
        sub.router.service_frame(
            EthernetFrame(probe.mac, farm.gateway.mac, query))
        outbound = farm.gateway.upstream_trace.records[-1].ip
        assert query.src == probe.ip and outbound.src != probe.ip
        assert outbound.udp.payload == b"q"

        reply = IPv4Packet(world, outbound.src, UDPDatagram(53, 5000, b"a"))
        sub.router.upstream_packet(reply)
        inbound = sub.router.trace.records[-1].ip
        assert reply.dst == outbound.src and inbound.dst == probe.ip
        assert inbound.udp.payload == b"a"
