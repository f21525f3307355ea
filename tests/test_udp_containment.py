"""UDP containment: the shimmed-datagram path for every verdict,
including DNS impersonation via REWRITE (redirecting hardcoded
external resolvers is classic C&C-takeover tradecraft)."""

from __future__ import annotations

import pytest

from repro.core.policy import (
    Action,
    AllowAll,
    ContainmentPolicy,
    DefaultDeny,
    Rule,
)
from repro.farm import Farm, FarmConfig
from repro.net.addresses import IPv4Address
from repro.net.dns import DnsMessage, DnsRecord, QTYPE_A
from repro.net.packet import PROTO_UDP, IPv4Packet, UDPDatagram
from repro.services.dhcp import DhcpClient

pytestmark = pytest.mark.integration

EXTERNAL_DNS = "203.0.113.53"
EXTERNAL_ECHO = "203.0.113.77"


def udp_probe_image(target: str, port: int, payload: bytes, replies):
    """Boot, then send one UDP datagram and record any reply."""

    def image(host):
        def probe(configured_host):
            src_port = configured_host.udp.allocate_port()

            def on_reply(h, packet, datagram):
                replies.append(datagram.payload)

            configured_host.udp.bind(src_port, on_reply)
            configured_host.udp.sendto(payload, IPv4Address(target), port,
                                       src_port)

        DhcpClient(host, on_configured=probe).start()

    return image


def echo_service(host, port=7777):
    received = []

    def handler(h, packet, datagram):
        received.append(datagram.payload)
        h.udp.sendto(b"echo:" + datagram.payload, packet.src,
                     datagram.sport, src_port=datagram.dport)

    host.udp.bind(port, handler)
    return received


class TestUdpForward:
    def test_forwarded_datagram_round_trips(self):
        farm = Farm(FarmConfig(seed=81))
        sub = farm.create_subfarm("udp")
        echo_host = farm.add_external_host("echo", EXTERNAL_ECHO)
        received = echo_service(echo_host)
        replies = []
        sub.create_inmate(
            image_factory=udp_probe_image(EXTERNAL_ECHO, 7777, b"ping",
                                          replies),
            policy=AllowAll())
        farm.run(until=120)
        assert received == [b"ping"]
        assert replies == [b"echo:ping"]
        assert sub.containment_server.verdict_counts.get("FORWARD") == 1

    def test_forwarded_datagram_is_natted(self):
        farm = Farm(FarmConfig(seed=81))
        sub = farm.create_subfarm("udp")
        echo_host = farm.add_external_host("echo", EXTERNAL_ECHO)
        sources = []

        def handler(h, packet, datagram):
            sources.append(packet.src)

        echo_host.udp.bind(7777, handler)
        replies = []
        inmate = sub.create_inmate(
            image_factory=udp_probe_image(EXTERNAL_ECHO, 7777, b"x",
                                          replies),
            policy=AllowAll())
        farm.run(until=120)
        assert sources and sources[0] == sub.nat.global_for(inmate.vlan)


class TestUdpReincarnation:
    def test_a_recreated_flow_is_decided_afresh(self):
        """The gateway evicts an idle UDP flow; the same tuple sent on
        later is a new flow, and the containment server asks the policy
        in force then instead of re-applying the first verdict."""
        farm = Farm(FarmConfig(seed=81, journal=True))
        sub = farm.create_subfarm("udp")
        received = echo_service(farm.add_external_host("echo",
                                                       EXTERNAL_ECHO))

        def image(host):
            def probe(configured):
                src_port = configured.udp.allocate_port()
                configured.udp.bind(src_port, lambda *args: None)

                def send(payload):
                    configured.udp.sendto(payload, IPv4Address(EXTERNAL_ECHO),
                                          7777, src_port)

                send(b"first")
                configured.sim.schedule_at(1530.0, send, b"second")

            DhcpClient(host, on_configured=probe).start()

        inmate = sub.create_inmate(image_factory=image, policy=AllowAll())
        farm.run(until=1000)
        sub.assign_policy(DefaultDeny(), inmate.vlan)
        farm.run(until=1600)
        assert received == [b"first"]
        assert [line.verdict for line in sub.router.flow_log] == [
            "FORWARD", "DROP"]
        assert sub.containment_server.verdict_counts == {"FORWARD": 1,
                                                         "DROP": 1}
        kinds = [event.kind for event in farm.journal.events()]
        assert kinds.count("verdict.issued") == 2
        assert kinds.count("verdict.applied") == 2


    def test_decisions_are_bounded_by_the_slot_space(self):
        """The server keeps one UDP decision per gateway slot, not one
        per incarnation for the farm's life: ten flows evicted one after
        another on four slots leave at most four decisions behind."""
        farm = Farm(FarmConfig(seed=81))
        sub = farm.create_subfarm("udp")
        sub.router.PORT_SLOTS = 4
        received = echo_service(farm.add_external_host("echo",
                                                       EXTERNAL_ECHO))
        configured = []

        def image(host):
            DhcpClient(host, on_configured=configured.append).start()

        sub.create_inmate(image_factory=image, policy=AllowAll())
        farm.run(until=60)
        host, = configured
        for n in range(10):
            src_port = host.udp.allocate_port()
            host.udp.bind(src_port, lambda *args: None)
            host.udp.sendto(b"%d" % n, IPv4Address(EXTERNAL_ECHO), 7777,
                            src_port)
            farm.run(until=farm.sim.now + 10)
            assert sub.router.expire_idle_flows(0.0) == 1
        assert received == [b"%d" % n for n in range(10)]
        assert [line.verdict for line in sub.router.flow_log] == \
            ["FORWARD"] * 10
        assert len(sub.containment_server._udp_decisions) <= 4


class TestUdpDrop:
    def test_dropped_datagram_vanishes(self):
        farm = Farm(FarmConfig(seed=82))
        sub = farm.create_subfarm("udp")
        echo_host = farm.add_external_host("echo", EXTERNAL_ECHO)
        received = echo_service(echo_host)
        replies = []
        sub.create_inmate(
            image_factory=udp_probe_image(EXTERNAL_ECHO, 7777, b"gone",
                                          replies),
            policy=DefaultDeny())
        farm.run(until=120)
        assert received == []
        assert replies == []
        assert sub.containment_server.verdict_counts.get("DROP") == 1


class TestUdpReflect:
    def test_reflected_datagram_lands_in_sink(self):
        farm = Farm(FarmConfig(seed=83))
        sub = farm.create_subfarm("udp")
        sink = sub.add_catchall_sink()
        echo_host = farm.add_external_host("echo", EXTERNAL_ECHO)
        received = echo_service(echo_host)

        from repro.core.policy import ReflectAll

        replies = []
        sub.create_inmate(
            image_factory=udp_probe_image(EXTERNAL_ECHO, 7777, b"probe",
                                          replies),
            policy=ReflectAll())
        farm.run(until=120)
        assert received == []
        udp_records = [r for r in sink.records if r.proto == "udp"]
        assert len(udp_records) == 1
        assert bytes(udp_records[0].payload) == b"probe"
        assert udp_records[0].dst_port == 7777


    def test_reflect_to_a_missing_service_drops_the_datagram(self):
        """A reflect to a service the subfarm lacks fails closed on the
        datagram path too: a DROP naming the service, and nothing
        leaves the farm."""
        from repro.core.dsl import DslPolicy

        farm = Farm(FarmConfig(seed=83))
        sub = farm.create_subfarm("udp")   # no sink
        echo_host = farm.add_external_host("echo", EXTERNAL_ECHO)
        received = echo_service(echo_host)
        replies = []
        sub.create_inmate(
            image_factory=udp_probe_image(EXTERNAL_ECHO, 7777, b"probe",
                                          replies),
            policy=DslPolicy("port 7777/udp -> reflect sink\n"
                             "default -> drop"))
        farm.run(until=120)
        assert received == [] and replies == []
        (line,) = [entry for entry in sub.router.flow_log
                   if entry.orig.resp_port == 7777]
        assert (line.verdict, line.annotation) == (
            "DROP", "missing service 'sink'")
        assert [r for r in farm.gateway.upstream_trace.records
                if r.point == "upstream-out"] == []


class DnsTakeoverPolicy(ContainmentPolicy):
    """REWRITE external DNS: answer C&C lookups with an address we
    control — containment-grade sinkholing."""

    SINKHOLE = IPv4Address("10.3.0.9")

    def declare(self):
        return [Rule(Action("rewrite", "DNS sinkholing"), 53, PROTO_UDP)]

    def rewrite_datagram(self, ctx, payload):
        try:
            query = DnsMessage.from_bytes(payload)
        except ValueError:
            return None
        if query.is_response or query.question.qtype != QTYPE_A:
            return None
        reply = query.reply(
            [DnsRecord.a(query.question.name, self.SINKHOLE)])
        return reply.to_bytes()


class TestUdpRewriteDnsTakeover:
    def test_external_dns_query_is_impersonated(self):
        farm = Farm(FarmConfig(seed=84))
        sub = farm.create_subfarm("udp")
        # The real external resolver would answer with the true C&C
        # address; it must never even see the query.
        from repro.world.dns_authority import AuthoritativeDns

        dns_host = farm.add_external_host("real-dns", EXTERNAL_DNS)
        authority = AuthoritativeDns(dns_host)
        authority.add_a("cc.badguys.example", IPv4Address("198.51.100.66"))

        query = DnsMessage.query(77, "cc.badguys.example").to_bytes()
        replies = []
        sub.create_inmate(
            image_factory=udp_probe_image(EXTERNAL_DNS, 53, query, replies),
            policy=DnsTakeoverPolicy())
        farm.run(until=120)

        assert authority.queries_answered == 0, "query must not escape"
        assert len(replies) == 1
        answer = DnsMessage.from_bytes(replies[0])
        assert answer.txid == 77
        assert str(answer.answers[0].address) == "10.3.0.9"
        counts = sub.containment_server.verdict_counts
        assert counts.get("REWRITE") == 1


class TestUdpContentRules:
    """A datagram is the whole content: a content branch waiting for
    more bytes will never see them, so the port atom's unconditional
    branch answers (the isolation model's ``other`` cell)."""

    PROGRAM = ('port 7777/udp content ~ "HELLO WORLD" -> forward\n'
               "default -> reflect sink\n")

    def run(self, payload: bytes, policy):
        farm = Farm(FarmConfig(seed=85))
        sub = farm.create_subfarm("udp")
        sink = sub.add_catchall_sink()
        received = echo_service(farm.add_external_host("echo", EXTERNAL_ECHO))
        sub.create_inmate(
            image_factory=udp_probe_image(EXTERNAL_ECHO, 7777, payload, []),
            policy=policy)
        farm.run(until=120)
        (record,) = sub.containment_server.verdict_log
        return record.decision, received, sink

    def test_proper_prefix_of_a_pattern_gets_the_atoms_fallback(self):
        from repro.core.dsl import DslPolicy
        from repro.net.packet import PROTO_UDP
        from repro.verify.model import compile_policy

        policy = DslPolicy(self.PROGRAM)
        decision, received, sink = self.run(b"HELLO", policy)
        assert decision.verdict.label == "REFLECT"
        assert decision.annotation == "dsl reflect"
        assert received == []
        assert [bytes(r.payload) for r in sink.records] == [b"HELLO"]
        (cell,) = [cell for cell in compile_policy(policy).cells(
            "outbound", PROTO_UDP) if cell.port_lo == 7777
            and cell.content == "other"]
        assert cell.verdict == "REFLECT"

    def test_whole_pattern_still_matches(self):
        from repro.core.dsl import DslPolicy

        decision, received, _ = self.run(b"HELLO WORLD!",
                                         DslPolicy(self.PROGRAM))
        assert decision.verdict.label == "FORWARD"
        assert received == [b"HELLO WORLD!"]
