"""Property-based tests (hypothesis) on core data structures."""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.core.shim import RequestShim, ResponseShim
from repro.core.verdicts import Verdict
from repro.gateway.flows import TokenBucket
from repro.net.addresses import IPv4Address, IPv4Network
from repro.net.dns import DnsMessage, DnsQuestion, DnsRecord, QTYPE_A
from repro.net.flow import FiveTuple
from repro.net.packet import (
    EthernetFrame,
    IPv4Packet,
    MacAddress,
    TCPSegment,
    UDPDatagram,
    internet_checksum,
)
from repro.net.tcp import seq_add, seq_lt, seq_sub

ips = st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPv4Address)
ports = st.integers(min_value=0, max_value=65535)
vlans = st.integers(min_value=1, max_value=4094)
seqs = st.integers(min_value=0, max_value=0xFFFFFFFF)
payloads = st.binary(max_size=512)


@st.composite
def five_tuples(draw):
    return FiveTuple(draw(ips), draw(ports), draw(ips), draw(ports),
                     draw(st.sampled_from([6, 17])))


class TestAddressProperties:
    @given(ips)
    def test_string_round_trip(self, address):
        assert IPv4Address(str(address)) == address

    @given(ips)
    def test_bytes_round_trip(self, address):
        assert IPv4Address.from_bytes(address.to_bytes()) == address

    @given(ips, st.integers(min_value=0, max_value=32))
    def test_network_contains_its_base(self, address, prefix):
        network = IPv4Network(f"{address}/{prefix}")
        assert network.contains(IPv4Address(network.network))


class TestSequenceArithmetic:
    @given(seqs, st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_add_sub_inverse(self, a, b):
        assert seq_sub(seq_add(a, b), b) == a

    @given(seqs, st.integers(min_value=1, max_value=(1 << 31) - 1))
    def test_forward_distance_is_lt(self, a, delta):
        assert seq_lt(a, seq_add(a, delta))

    @given(seqs)
    def test_irreflexive(self, a):
        assert not seq_lt(a, a)


class TestPacketRoundTrips:
    @given(ports, ports, seqs, seqs,
           st.integers(min_value=0, max_value=0x3F), payloads)
    def test_tcp_segment(self, sport, dport, seq, ack, flags, payload):
        seg = TCPSegment(sport, dport, seq, ack, flags, payload=payload)
        src, dst = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")
        parsed = TCPSegment.from_bytes(seg.to_bytes(src, dst))
        assert (parsed.sport, parsed.dport, parsed.seq, parsed.ack,
                parsed.flags, parsed.payload) == (
            sport, dport, seq, ack, flags, payload)

    @given(ports, ports, payloads)
    def test_udp_datagram(self, sport, dport, payload):
        dgram = UDPDatagram(sport, dport, payload)
        src, dst = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")
        parsed = UDPDatagram.from_bytes(dgram.to_bytes(src, dst))
        assert (parsed.sport, parsed.dport, parsed.payload) == (
            sport, dport, payload)

    @given(ips, ips, ports, ports, payloads, vlans)
    def test_full_frame(self, src, dst, sport, dport, payload, vlan):
        frame = EthernetFrame(
            MacAddress("02:00:00:00:00:01"), MacAddress("02:00:00:00:00:02"),
            IPv4Packet(src, dst, UDPDatagram(sport, dport, payload)),
            vlan=vlan,
        )
        parsed = EthernetFrame.from_bytes(frame.to_bytes())
        assert parsed.vlan == vlan
        assert parsed.ip.src == src and parsed.ip.dst == dst
        assert parsed.ip.udp.payload == payload

    @given(payloads)
    def test_checksum_detects_single_bit_flips(self, data):
        if not data:
            return
        original = internet_checksum(data)
        flipped = bytearray(data)
        flipped[0] ^= 0x01
        # One's-complement sums catch any single-bit error.
        assert internet_checksum(bytes(flipped)) != original


class TestShimProperties:
    @settings(max_examples=50)
    @given(five_tuples(), vlans, ports)
    def test_request_round_trip(self, flow, vlan, nonce):
        shim = RequestShim(flow, vlan, nonce)
        parsed = RequestShim.from_bytes(shim.to_bytes(), proto=flow.proto)
        assert parsed.flow == flow
        assert parsed.vlan_id == vlan
        assert parsed.nonce_port == nonce

    @settings(max_examples=50)
    @given(five_tuples(),
           st.sampled_from([Verdict.FORWARD, Verdict.DROP, Verdict.REDIRECT,
                            Verdict.REFLECT, Verdict.REWRITE, Verdict.LIMIT]),
           st.text(max_size=20),
           st.text(max_size=60, alphabet=st.characters(
               blacklist_characters=";", blacklist_categories=("Cs",))))
    def test_response_round_trip(self, flow, verdict, policy, annotation):
        shim = ResponseShim(flow, verdict, policy, annotation)
        parsed = ResponseShim.from_bytes(shim.to_bytes(), proto=flow.proto)
        assert parsed.verdict == verdict
        assert parsed.flow == flow
        # The 32-byte tag truncates on a codepoint boundary: what comes
        # back is always a (possibly shortened) prefix of the original.
        assert policy.startswith(parsed.policy)
        assert len(parsed.policy.encode("utf-8")) <= 32
        assert parsed.annotation == annotation


class TestDnsProperties:
    names = st.lists(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                min_size=1, max_size=20).filter(
                    lambda s: not s.startswith("-")),
        min_size=1, max_size=4,
    ).map(".".join)

    @given(st.integers(min_value=0, max_value=0xFFFF), names, ips)
    def test_answer_round_trip(self, txid, name, address):
        query = DnsMessage.query(txid, name)
        reply = query.reply([DnsRecord.a(name, address)])
        parsed = DnsMessage.from_bytes(reply.to_bytes())
        assert parsed.txid == txid
        assert parsed.question.name == name.lower()
        assert parsed.answers[0].address == address


class TestTokenBucketProperties:
    @settings(max_examples=50)
    @given(st.floats(min_value=10.0, max_value=1e6),
           st.lists(st.integers(min_value=1, max_value=10000),
                    min_size=1, max_size=50))
    def test_long_run_rate_never_exceeded(self, rate, sizes):
        bucket = TokenBucket(rate)
        now = 0.0
        last_release = 0.0
        total = 0
        for size in sizes:
            delay = bucket.delay_for(now, size)
            last_release = max(last_release, now + delay)
            total += size
        if last_release > 0:
            # Average release rate cannot beat the configured rate by
            # more than the initial burst allowance.
            assert total <= rate * last_release + bucket.burst + 1e-6

    @given(st.floats(max_value=0.0, allow_nan=False))
    def test_nonpositive_rate_rejected(self, rate):
        try:
            TokenBucket(rate)
        except ValueError:
            return
        raise AssertionError("nonpositive rate must raise")


class TestDslProperties:
    actions = st.sampled_from(
        ["forward", "drop", "rewrite", "reflect sink",
         "redirect 10.3.0.9:8080", "limit 5000"])
    directions = st.sampled_from(["", "inbound ", "outbound "])
    port_specs = st.tuples(
        st.integers(min_value=1, max_value=65535),
        st.sampled_from(["tcp", "udp"]),
    )

    @settings(max_examples=60)
    @given(st.lists(st.tuples(directions, port_specs, actions),
                    min_size=1, max_size=8),
           actions)
    def test_generated_programs_parse_and_decide(self, rules, default):
        from repro.core.dsl import DslError, DslPolicy, parse_program

        lines = [
            f"{direction}port {port}/{proto} -> {action}"
            for direction, (port, proto), action in rules
        ]
        lines.append(f"default -> {default}")
        program = "\n".join(lines)
        try:
            parsed_rules, parsed_default = parse_program(program)
        except DslError as exc:
            # Randomly generated rule lists may repeat a match; the
            # parser now rejects fully-shadowed rules by design.
            assert exc.reason == "shadowed-rule"
            assume(False)
        assert len(parsed_rules) == len(rules)
        # The policy publishes a surface, and a flow at the low port
        # of each of its cells gets a decision (or a deliberate
        # wait-for-content None) without raising.
        from repro.verify import compile_policy
        from tests.test_policy_decisions import SERVICE_SETS, context

        policy = DslPolicy(program, services=SERVICE_SETS["sink+smtp"])
        cells = compile_policy(policy).outcomes
        assert cells
        for cell in cells:
            ctx = context(policy.services, cell.direction, cell.proto,
                          cell.port_lo, None, 2)
            policy.decide(ctx) or policy.decide_content(ctx, b"GET /")


class TestHardenedRoundTrips:
    """Serialize→parse round trips for the packet classes the hostile-
    input hardening pass touched (docs/HARDENING.md): what a peer
    emits, the hardened parser must still accept unchanged."""

    macs = st.integers(min_value=0, max_value=(1 << 48) - 1).map(MacAddress)

    @given(st.sampled_from([1, 2]), macs, ips, macs, ips)
    def test_arp_round_trip(self, op, smac, sip, tmac, tip):
        from repro.net.arp import ArpMessage

        message = ArpMessage(op, smac, sip, tmac, tip)
        parsed = ArpMessage.from_bytes(message.to_bytes())
        assert (parsed.op, parsed.sender_mac, parsed.sender_ip,
                parsed.target_mac, parsed.target_ip) == (
            op, smac, sip, tmac, tip)

    @given(st.sampled_from([1, 2, 3, 4]),
           st.integers(min_value=0, max_value=0xFFFFFFFF),
           macs, ips, ips, ips,
           st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_dhcp_round_trip(self, kind, xid, chaddr, yiaddr, router,
                             dns, lease):
        from repro.services.dhcp import DhcpMessage

        message = DhcpMessage(kind, xid, chaddr, yiaddr, router, dns, lease)
        parsed = DhcpMessage.from_bytes(message.to_bytes())
        assert (parsed.kind, parsed.xid, parsed.chaddr, parsed.yiaddr,
                parsed.router, parsed.dns, parsed.lease) == (
            kind, xid, chaddr, yiaddr, router, dns, lease)

    @given(ips, ports,
           st.binary(max_size=64).filter(lambda b: b"\x00" not in b))
    def test_socks4_request_round_trip(self, address, port, user_id):
        from repro.net.socks import Socks4Request

        request = Socks4Request(address, port, user_id=user_id)
        wire = request.to_bytes()
        result = Socks4Request.parse(wire)
        assert result is not None
        parsed, consumed = result
        assert consumed == len(wire)
        assert (parsed.address, parsed.port, parsed.user_id) == (
            address, port, user_id)

    @given(st.integers(min_value=0, max_value=255), ports, ips)
    def test_socks4_reply_round_trip(self, code, port, address):
        from repro.net.socks import Socks4Reply

        reply = Socks4Reply(code, port, address)
        result = Socks4Reply.parse(reply.to_bytes())
        assert result is not None
        parsed, consumed = result
        assert consumed == 8
        assert (parsed.code, parsed.port, parsed.address) == (
            code, port, address)

    @settings(max_examples=40)
    @given(ips, ips, ports, ports, payloads,
           st.integers(min_value=1, max_value=8),
           st.lists(st.tuples(ips, ips), min_size=8, max_size=8))
    def test_gre_nesting_round_trip(self, src, dst, sport, dport,
                                    payload, depth, hops):
        from repro.net.gre import encapsulate, unwrap

        inner = IPv4Packet(src, dst, UDPDatagram(sport, dport, payload))
        packet = inner
        for outer_src, outer_dst in hops[:depth]:
            packet = encapsulate(packet, outer_src, outer_dst)
        parsed = IPv4Packet.from_bytes(packet.to_bytes())
        recovered = unwrap(parsed)
        assert recovered.src == src and recovered.dst == dst
        assert recovered.udp.payload == payload

    @given(st.integers(min_value=0, max_value=0xFFFF),
           st.integers(min_value=0, max_value=0xFFFF))
    def test_dns_mx_round_trip(self, txid, priority):
        reply = DnsMessage.query(txid, "victim.example").reply(
            [DnsRecord.mx("victim.example", "mx1.victim.example",
                          priority=priority)])
        parsed = DnsMessage.from_bytes(reply.to_bytes())
        answer = parsed.answers[0]
        assert answer.exchange == "mx1.victim.example"
        assert answer.priority == priority
