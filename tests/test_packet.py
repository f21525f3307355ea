"""Wire-format round-trips and header semantics."""

from __future__ import annotations

import pytest

from repro.net.addresses import IPv4Address, IPv4Network, MacAddress, MacAllocator
from repro.net.packet import (
    ACK,
    EthernetFrame,
    IPv4Packet,
    PSH,
    SYN,
    TCPSegment,
    UDPDatagram,
    internet_checksum,
)


class TestAddresses:
    def test_ipv4_string_round_trip(self):
        for text in ("0.0.0.0", "10.0.0.1", "192.150.187.12", "255.255.255.255"):
            assert str(IPv4Address(text)) == text

    def test_ipv4_rejects_malformed(self):
        for bad in ("1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d"):
            with pytest.raises(ValueError):
                IPv4Address(bad)

    def test_rfc1918_detection(self):
        assert IPv4Address("10.1.2.3").is_rfc1918()
        assert IPv4Address("172.16.0.1").is_rfc1918()
        assert IPv4Address("172.31.255.255").is_rfc1918()
        assert IPv4Address("192.168.99.1").is_rfc1918()
        assert not IPv4Address("172.32.0.1").is_rfc1918()
        assert not IPv4Address("8.8.8.8").is_rfc1918()

    def test_network_contains_and_hosts(self):
        net = IPv4Network("192.0.2.0/24")
        assert net.contains(IPv4Address("192.0.2.200"))
        assert not net.contains(IPv4Address("192.0.3.1"))
        hosts = list(net.hosts())
        assert len(hosts) == 254
        assert str(hosts[0]) == "192.0.2.1"
        assert str(hosts[-1]) == "192.0.2.254"

    def test_address_arithmetic(self):
        a = IPv4Address("10.0.0.1")
        assert str(a + 5) == "10.0.0.6"
        assert (a + 5) - a == 5

    def test_mac_round_trip_and_broadcast(self):
        mac = MacAddress("02:00:00:aa:bb:cc")
        assert MacAddress.from_bytes(mac.to_bytes()) == mac
        assert MacAddress.broadcast().is_broadcast
        assert not mac.is_broadcast

    def test_mac_allocator_unique(self):
        alloc = MacAllocator()
        macs = {alloc.allocate() for _ in range(100)}
        assert len(macs) == 100


class TestChecksum:
    def test_rfc1071_example(self):
        # Classic example from RFC 1071 §3.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_odd_length_padding(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")


class TestTcpSegment:
    def test_round_trip(self):
        src, dst = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")
        seg = TCPSegment(1234, 80, seq=1000, ack=2000, flags=SYN | ACK,
                         payload=b"hello")
        parsed = TCPSegment.from_bytes(seg.to_bytes(src, dst))
        assert (parsed.sport, parsed.dport) == (1234, 80)
        assert (parsed.seq, parsed.ack) == (1000, 2000)
        assert parsed.syn and parsed.has_ack and not parsed.fin
        assert parsed.payload == b"hello"

    def test_seq_len_counts_syn_and_fin(self):
        assert TCPSegment(1, 2, flags=SYN).seq_len == 1
        assert TCPSegment(1, 2, flags=ACK, payload=b"abc").seq_len == 3
        assert TCPSegment(1, 2, flags=ACK | PSH, payload=b"ab").seq_len == 2


class TestUdpDatagram:
    def test_round_trip(self):
        src, dst = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")
        dgram = UDPDatagram(5353, 53, b"query")
        parsed = UDPDatagram.from_bytes(dgram.to_bytes(src, dst))
        assert (parsed.sport, parsed.dport, parsed.payload) == (5353, 53, b"query")


class TestPlainValueObjects:
    """TCP/UDP carry no serialization cache, so there is no write hook:
    ``to_bytes`` always answers for the fields as they are now."""

    SRC, DST = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")

    @pytest.mark.parametrize("cls", [TCPSegment, UDPDatagram])
    def test_no_write_hook_and_no_cache_slot(self, cls):
        assert "__setattr__" not in vars(cls)
        assert not [slot for slot in cls.__slots__
                    if slot.startswith("_wire")]

    @pytest.mark.parametrize("original, field, value", [
        (TCPSegment(1234, 80, seq=1000, ack=2000, flags=ACK | PSH,
                    payload=b"hello"), "seq", 0xFFFFFFFF),
        (TCPSegment(1234, 80, flags=SYN), "dport", 8080),
        (TCPSegment(1234, 80, flags=ACK, payload=b"a"), "payload", b"bcd"),
        (UDPDatagram(5353, 53, b"query"), "sport", 53),
        (UDPDatagram(5353, 53, b"query"), "payload", b""),
    ])
    def test_write_on_a_copy_shows_in_its_bytes_only(self, original, field,
                                                     value):
        before = original.to_bytes(self.SRC, self.DST)
        clone = original.copy()
        assert clone.to_bytes(self.SRC, self.DST) == before
        setattr(clone, field, value)
        parsed = type(original).from_bytes(
            clone.to_bytes(self.SRC, self.DST))
        assert getattr(parsed, field) == value
        assert original.to_bytes(self.SRC, self.DST) == before

    def test_rebind_keeps_flags_window_and_payload(self):
        seg = TCPSegment(1234, 80, seq=1, ack=2, flags=ACK | PSH,
                         window=4096, payload=b"hello")
        out = seg.rebind(40000, 25, 11, 12)
        assert (out.sport, out.dport, out.seq, out.ack) == (40000, 25, 11, 12)
        assert (out.flags, out.window, out.payload) == (
            ACK | PSH, 4096, b"hello")
        gram = UDPDatagram(5353, 53, b"query").rebind(1, 2)
        assert (gram.sport, gram.dport, gram.payload) == (1, 2, b"query")


class TestIPv4Packet:
    def test_round_trip_tcp(self):
        packet = IPv4Packet(
            IPv4Address("192.0.2.1"), IPv4Address("198.51.100.2"),
            TCPSegment(4000, 25, seq=7, flags=SYN),
        )
        parsed = IPv4Packet.from_bytes(packet.to_bytes())
        assert parsed.src == packet.src and parsed.dst == packet.dst
        assert parsed.tcp.dport == 25 and parsed.tcp.syn

    def test_round_trip_udp(self):
        packet = IPv4Packet(
            IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
            UDPDatagram(53, 53, b"x" * 100),
        )
        parsed = IPv4Packet.from_bytes(packet.to_bytes())
        assert parsed.udp.payload == b"x" * 100

    def test_copy_is_deep(self):
        packet = IPv4Packet(
            IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
            TCPSegment(1, 2, payload=b"data"),
        )
        clone = packet.copy()
        clone.tcp.seq = 999
        clone.src = IPv4Address("1.1.1.1")
        assert packet.tcp.seq == 0
        assert str(packet.src) == "10.0.0.1"

    def test_addresses_coerced_unless_canonical(self):
        dst = IPv4Address("10.0.0.2")
        packet = IPv4Packet("10.0.0.1", dst, UDPDatagram(1, 2))
        assert packet.src is IPv4Address("10.0.0.1") and packet.dst is dst
        assert packet.proto == 17
        with pytest.raises(ValueError):
            IPv4Packet("10.0.0", dst, UDPDatagram(1, 2))
        with pytest.raises(TypeError):
            IPv4Packet(dst, 1.5, UDPDatagram(1, 2))
        with pytest.raises(ValueError):
            IPv4Packet(dst, dst, b"opaque")


class TestEthernetFrame:
    def test_untagged_round_trip(self):
        frame = EthernetFrame(
            MacAddress("02:00:00:00:00:01"), MacAddress("02:00:00:00:00:02"),
            IPv4Packet(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
                       UDPDatagram(1, 2, b"p")),
        )
        parsed = EthernetFrame.from_bytes(frame.to_bytes())
        assert parsed.vlan is None
        assert parsed.ip.udp.payload == b"p"

    def test_vlan_tag_survives_round_trip(self):
        frame = EthernetFrame(
            MacAddress("02:00:00:00:00:01"), MacAddress.broadcast(),
            IPv4Packet(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
                       UDPDatagram(1, 2, b"p")),
            vlan=1234,
        )
        parsed = EthernetFrame.from_bytes(frame.to_bytes())
        assert parsed.vlan == 1234

    def test_vlan_range_enforced(self):
        src = MacAddress("02:00:00:00:00:01")
        with pytest.raises(ValueError):
            EthernetFrame(src, src, b"", vlan=4095)
        with pytest.raises(ValueError):
            EthernetFrame(src, src, b"", vlan=0)

    def test_addresses_coerced_unless_canonical(self):
        src = MacAddress("02:00:00:00:00:01")
        frame = EthernetFrame(src, "02:00:00:00:00:02", b"")
        assert frame.src is src
        assert frame.dst is MacAddress(0x020000000002)
        with pytest.raises(ValueError):
            EthernetFrame(src, "02:00:00", b"")
        with pytest.raises(TypeError):
            EthernetFrame(b"\x02" * 6, src, b"")
