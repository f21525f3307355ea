"""Grammar-aware malformed-input generators, one per farm parser.

Random bytes mostly die in the first length check; inputs that are
*almost* right — valid framing with one lying field, a compression
pointer that almost terminates, an options list one byte short — are
what reach the deep branches.  Each generator here builds a valid
message with the real serializers, then breaks it in a
protocol-specific way chosen by the caller's ``random.Random``.

The JSON documents the farm accepts from outside share one breaker,
:func:`wrong_shapes`, which swaps, drops or adds fields, entries and
containers where the document's :mod:`repro.shape` table names them.

Every generator is paired with the parser it attacks in
:data:`TARGETS`.  The parser contract under test: *succeed, or raise*
:class:`~repro.net.errors.ParseError`.  The stream engines (SMTP, IRC,
FTP) have a stronger contract — they must never raise at all; feeding
them is still routed through the same harness, which simply observes
that nothing escapes.
"""

from __future__ import annotations

import json
import random
import struct
import zlib
from typing import Callable, Dict, NamedTuple

from repro.core.dsl import DslError, parse_program
from repro.core.shim import RequestShim, ResponseShim, peek_length
from repro.core.verdicts import Verdict
from repro.farm import FarmConfig
from repro.faults.plan import (FAULT_PLAN, FAULT_SPEC, KINDS, WORKER_KINDS,
                               FaultPlan, FaultSpec)
from repro.gateway.nat import InboundMode
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.arp import ArpMessage
from repro.net.dns import DnsMessage, DnsRecord, encode_name, decode_name
from repro.net.errors import ParseError
from repro.net.flow import FiveTuple
from repro.net.ftp import FtpServerEngine
from repro.net.gre import GRE_PROTO_IPV4, PROTO_GRE, encapsulate, unwrap
from repro.net.http import HttpParser, MAX_HEADER_BYTES
from repro.net.irc import IrcNetwork, IrcServerEngine
from repro.net.packet import (
    ACK,
    EthernetFrame,
    IPv4Packet,
    PROTO_TCP,
    SYN,
    TCPSegment,
    UDPDatagram,
)
from repro.net.smtp import SmtpServerEngine, Strictness
from repro.net.socks import Socks4Reply, Socks4Request
from repro.parallel.campaign import SHARD_SPEC, ShardSpec
from repro.parallel.transport import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    TransportError,
)
from repro.parallel.worker import read_spec
from repro.services.dhcp import DhcpMessage
from repro.shape import Table
from repro.verify import (GrantIndex, canonical_digest, merge_certificates,
                          verify_digest)
from repro.verify.certificate import CERTIFICATE


class FuzzTarget(NamedTuple):
    """A named (generator, parser) pair the fuzz loops iterate over."""

    name: str
    generate: Callable[[random.Random], bytes]
    parse: Callable[[bytes], object]


# ----------------------------------------------------------------------
# Valid-message builders (broken afterwards by the generators)
# ----------------------------------------------------------------------
def _ip(rng: random.Random) -> IPv4Address:
    return IPv4Address(rng.randrange(1, 0xFFFFFFFE))


def _mac(rng: random.Random) -> MacAddress:
    return MacAddress(rng.randrange(1, 1 << 48))


def _tcp(rng: random.Random) -> TCPSegment:
    return TCPSegment(rng.randrange(1, 65536), rng.randrange(1, 65536),
                      seq=rng.randrange(1 << 32), ack=rng.randrange(1 << 32),
                      flags=rng.choice((SYN, ACK, SYN | ACK, 0)),
                      payload=bytes(rng.randrange(256)
                                    for _ in range(rng.randrange(32))))


def _udp(rng: random.Random) -> UDPDatagram:
    return UDPDatagram(rng.randrange(1, 65536), rng.randrange(1, 65536),
                       bytes(rng.randrange(256)
                             for _ in range(rng.randrange(64))))


def _packet(rng: random.Random) -> IPv4Packet:
    transport = _tcp(rng) if rng.random() < 0.5 else _udp(rng)
    return IPv4Packet(_ip(rng), _ip(rng), transport)


def _flow(rng: random.Random) -> FiveTuple:
    return FiveTuple(_ip(rng), rng.randrange(1, 65536),
                     _ip(rng), rng.randrange(1, 65536), PROTO_TCP)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def gen_ethernet(rng: random.Random) -> bytes:
    wire = bytearray(EthernetFrame(_mac(rng), _mac(rng), _packet(rng),
                                   vlan=rng.randrange(1, 4095)).to_bytes())
    case = rng.randrange(5)
    if case == 0:                       # truncated header / tag
        del wire[rng.randrange(1, 18):]
    elif case == 1:                     # reserved VID 4095 / priority tag
        wire[14:16] = struct.pack("!H", rng.choice((4095, 0)))
    elif case == 2:                     # lying ethertype
        wire[16:18] = struct.pack("!H", rng.randrange(1 << 16))
    elif case == 3:                     # inner IPv4 corrupted
        if len(wire) > 20:
            wire[18] = rng.randrange(256)   # version/IHL byte
    # case 4: leave valid (parsers must also accept good input)
    return bytes(wire)


def gen_ipv4(rng: random.Random) -> bytes:
    wire = bytearray(_packet(rng).to_bytes())
    case = rng.randrange(5)
    if case == 0:                       # IHL lies (too small / too big)
        wire[0] = (4 << 4) | rng.choice((0, 1, 4, 15))
    elif case == 1:                     # total-length lies
        wire[2:4] = struct.pack("!H", rng.choice((0, 1, 19, 0xFFFF)))
    elif case == 2:                     # wrong version
        wire[0] = (rng.choice((0, 5, 6, 15)) << 4) | 5
    elif case == 3:                     # truncation
        del wire[rng.randrange(1, len(wire)):]
    return bytes(wire)


def gen_tcp(rng: random.Random) -> bytes:
    src, dst = _ip(rng), _ip(rng)
    wire = bytearray(_tcp(rng).to_bytes(src, dst))
    case = rng.randrange(5)
    if case == 0:                       # lying data offset
        offset_words = rng.choice((0, 1, 4, 15))
        wire[12] = offset_words << 4
    elif case == 1:                     # options: TLV with lying length
        options = bytearray()
        for _ in range(rng.randrange(1, 4)):
            kind = rng.choice((2, 3, 4, 8, 254))
            length = rng.choice((0, 1, 2, 4, 40))
            options += bytes((kind, length))
            options += bytes(rng.randrange(256)
                             for _ in range(rng.randrange(4)))
        while len(options) % 4:
            options.append(rng.choice((0, 1)))
        header_len = 20 + len(options)
        if header_len <= 60:
            wire[12] = (header_len // 4) << 4
            wire[20:20] = options
    elif case == 2:                     # truncation
        del wire[rng.randrange(1, len(wire)):]
    elif case == 3:                     # EOL / NOP padding soup
        wire[12] = 8 << 4
        wire[20:20] = bytes(rng.choice((0, 1)) for _ in range(12))
    return bytes(wire)


def gen_udp(rng: random.Random) -> bytes:
    wire = bytearray(_udp(rng).to_bytes(_ip(rng), _ip(rng)))
    case = rng.randrange(4)
    if case == 0:                       # length field below minimum
        wire[4:6] = struct.pack("!H", rng.randrange(8))
    elif case == 1:                     # length field beyond the data
        wire[4:6] = struct.pack("!H", rng.randrange(len(wire), 0xFFFF))
    elif case == 2:                     # truncation
        del wire[rng.randrange(1, len(wire)):]
    return bytes(wire)


def gen_dns(rng: random.Random) -> bytes:
    message = DnsMessage.query(rng.randrange(1 << 16), "fuzz.example.com")
    if rng.random() < 0.5:
        message = message.reply([DnsRecord.a("fuzz.example.com", _ip(rng)),
                                 DnsRecord.mx("fuzz.example.com",
                                              "mx.example.com")])
    wire = bytearray(message.to_bytes())
    case = rng.randrange(7)
    if case == 0:                       # qdcount lies
        wire[4:6] = struct.pack("!H", rng.choice((0, 2, 0xFFFF)))
    elif case == 1:                     # self/forward compression pointer
        pointer = rng.choice((12, 13, len(wire) - 1, 0x3FFF))
        wire[12:14] = struct.pack("!H", 0xC000 | pointer)
        del wire[14:]
    elif case == 2:                     # truncation
        del wire[rng.randrange(1, len(wire)):]
    elif case == 3:                     # rdlength lies (answers only)
        index = wire.rfind(b"\x00\x04")
        if index > 0:
            wire[index:index + 2] = struct.pack(
                "!H", rng.choice((0, 3, 200, 0xFFFF)))
    elif case == 4:                     # reserved label type 0b01/0b10
        wire[12] = rng.choice((0x40, 0x80)) | rng.randrange(0x3F)
    elif case == 5:                     # unsupported record type
        wire[-14:-12] = struct.pack("!H", rng.choice((5, 16, 255)))
    return bytes(wire)


def gen_dns_name(rng: random.Random) -> bytes:
    """Raw name blobs attacking decode_name's pointer/length guards."""
    case = rng.randrange(5)
    if case == 0:
        # Backward pointer chain: entry at the end hops through every
        # pair; >16 pairs trips the hop cap (and a chain reaching
        # offset 0 trips the strictly-backward rule).
        pairs = rng.randrange(2, 24)
        blob = bytearray(b"\x01a\x00")
        for _ in range(pairs):
            target = len(blob) - rng.choice((2, 3))
            blob += struct.pack("!H", 0xC000 | max(0, target))
        return bytes(blob)
    if case == 1:                       # name-length bomb: 63-byte labels
        labels = rng.randrange(3, 8)
        return b"".join(b"\x3f" + bytes(63) for _ in range(labels)) + b"\x00"
    if case == 2:                       # truncated label / pointer
        blob = encode_name("long-label-for-truncation.example.com")
        return blob[:rng.randrange(1, len(blob))]
    if case == 3:                       # non-ascii label bytes
        return b"\x04\xff\xfe\xfd\xfc\x00"
    return encode_name("ok.example.com")


def _parse_dns_name(data: bytes) -> object:
    # Enter at the tail so backward pointer chains are reachable.
    return decode_name(data, max(0, len(data) - 2))


def gen_request_shim(rng: random.Random) -> bytes:
    wire = bytearray(RequestShim(_flow(rng), rng.randrange(4096),
                                 rng.randrange(40000, 60000)).to_bytes())
    case = rng.randrange(5)
    if case == 0:                       # corrupt magic
        wire[rng.randrange(4)] ^= 0xFF
    elif case == 1:                     # lying length field
        wire[4:6] = struct.pack("!H", rng.choice((0, 8, 56, 0xFFFF)))
    elif case == 2:                     # bad version / type
        wire[rng.choice((6, 7))] = rng.randrange(256)
    elif case == 3:                     # truncation
        del wire[rng.randrange(1, len(wire)):]
    return bytes(wire)


def gen_response_shim(rng: random.Random) -> bytes:
    shim = ResponseShim(_flow(rng), rng.choice(
        (Verdict.FORWARD, Verdict.DROP, Verdict.REWRITE, Verdict.REFLECT)),
        policy="fuzz", annotation="x" * rng.randrange(8),
        rate=rng.choice((None, 1000.0)))
    wire = bytearray(shim.to_bytes())
    case = rng.randrange(6)
    if case == 0:                       # invalid verdict opcode
        wire[20:24] = struct.pack("!I", rng.choice((0, 3, 0xFF, 1 << 31)))
    elif case == 1:                     # lying length field
        wire[4:6] = struct.pack("!H", rng.choice((0, 24, 55, 0xFFFF)))
    elif case == 2:                     # malformed rate annotation
        index = bytes(wire).find(b"rate=")
        if index >= 0:
            wire[index + 5] = 0x78      # "rate=x..."
    elif case == 3:                     # truncation
        del wire[rng.randrange(1, len(wire)):]
    elif case == 4:                     # corrupt preamble
        wire[rng.randrange(8)] ^= rng.randrange(1, 256)
    return bytes(wire)


def _parse_request_shim(data: bytes) -> object:
    peek_length(data)
    return RequestShim.from_bytes(data)


def _parse_response_shim(data: bytes) -> object:
    peek_length(data)
    return ResponseShim.from_bytes(data)


def gen_arp(rng: random.Random) -> bytes:
    wire = bytearray(ArpMessage.request(_mac(rng), _ip(rng),
                                        _ip(rng)).to_bytes())
    case = rng.randrange(4)
    if case == 0:                       # exotic hardware/protocol combos
        wire[rng.randrange(6)] = rng.randrange(256)
    elif case == 1:                     # truncation
        del wire[rng.randrange(1, len(wire)):]
    return bytes(wire)


def gen_dhcp(rng: random.Random) -> bytes:
    wire = bytearray(DhcpMessage.discover(rng.randrange(1 << 32),
                                          _mac(rng)).to_bytes())
    case = rng.randrange(4)
    if case == 0:                       # bad op / kind
        wire[rng.choice((0, 1))] = rng.randrange(256)
    elif case == 1:                     # truncation
        del wire[rng.randrange(1, len(wire)):]
    return bytes(wire)


def gen_socks(rng: random.Random) -> bytes:
    request = Socks4Request(_ip(rng), rng.randrange(1, 65536),
                            user_id=b"bot" * rng.randrange(4))
    wire = bytearray(request.to_bytes())
    case = rng.randrange(4)
    if case == 0:                       # wrong version
        wire[0] = rng.randrange(256)
    elif case == 1:                     # user-id flood, no terminator
        wire = wire[:8] + bytes(b % 255 + 1 for b in bytes(
            rng.randrange(256) for _ in range(rng.randrange(1, 700))))
    elif case == 2:                     # truncation
        del wire[rng.randrange(1, len(wire)):]
    return bytes(wire)


def _parse_socks(data: bytes) -> object:
    Socks4Request.parse(data)
    return Socks4Reply.parse(data)


def gen_http(rng: random.Random) -> bytes:
    case = rng.randrange(5)
    if case == 0:                       # unterminated header flood
        return b"GET / HTTP/1.1\r\nX-Flood: " + \
            b"A" * (MAX_HEADER_BYTES + rng.randrange(64))
    if case == 1:                       # malformed Content-Length
        value = rng.choice((b"banana", b"-5", b"1e9", b"0x10"))
        return (b"POST / HTTP/1.1\r\nContent-Length: " + value
                + b"\r\n\r\nbody")
    if case == 2:                       # non-numeric status
        return b"HTTP/1.1 TEAPOT Fine\r\n\r\n"
    if case == 3:                       # header soup
        return bytes(rng.randrange(256) for _ in range(rng.randrange(128))) \
            + b"\r\n\r\n"
    return (b"GET /ok HTTP/1.1\r\nHost: fuzz\r\n\r\n")


def _parse_http(data: bytes) -> object:
    role = "response" if data[:5] == b"HTTP/" else "request"
    parser = HttpParser(role)
    parser.feed(data)
    return parser


def gen_gre(rng: random.Random) -> bytes:
    inner = _packet(rng)
    depth = rng.randrange(1, 13)        # beyond MAX_NESTING sometimes
    packet = inner
    for _ in range(depth):
        packet = encapsulate(packet, _ip(rng), _ip(rng))
    wire = bytearray(packet.to_bytes())
    if rng.random() < 0.3:              # corrupt a GRE header en route
        index = bytes(wire).find(struct.pack("!HH", 0, GRE_PROTO_IPV4))
        if index >= 0:
            wire[index + rng.randrange(4)] = rng.randrange(256)
    return bytes(wire)


def _parse_gre(data: bytes) -> object:
    packet = IPv4Packet.from_bytes(data)
    if packet.proto == PROTO_GRE:
        return unwrap(packet)
    return packet


def _gen_lines(rng: random.Random, verbs) -> bytes:
    out = bytearray()
    for _ in range(rng.randrange(1, 6)):
        case = rng.randrange(4)
        if case == 0:                   # oversized line
            out += rng.choice(verbs) + b" " + \
                bytes(rng.choice(b"abcdefgh")
                      for _ in range(rng.randrange(8000, 10000)))
        elif case == 1:                 # binary garbage
            out += bytes(rng.randrange(256)
                         for _ in range(rng.randrange(64)))
        else:
            out += rng.choice(verbs) + b" fuzz"
        out += rng.choice((b"\r\n", b"\n", b""))  # incl. bare LF
    return bytes(out)


def gen_smtp(rng: random.Random) -> bytes:
    return _gen_lines(rng, (b"HELO", b"MAIL FROM:<a@b>", b"RCPT TO:<c@d>",
                            b"DATA", b"QUIT", b"XFUZZ"))


def _parse_smtp(data: bytes) -> object:
    strictness = Strictness.STRICT if len(data) % 2 else Strictness.LENIENT
    engine = SmtpServerEngine(send=lambda _b: None, strictness=strictness)
    engine.feed(data)
    return engine


def gen_irc(rng: random.Random) -> bytes:
    return _gen_lines(rng, (b"NICK bot", b"USER a b c d", b"JOIN #fuzz",
                            b"PRIVMSG #fuzz :hi", b"TOPIC #fuzz", b"PING"))


def _parse_irc(data: bytes) -> object:
    engine = IrcServerEngine(IrcNetwork(), send=lambda _b: None)
    engine.feed(data)
    return engine


def gen_ftp(rng: random.Random) -> bytes:
    return _gen_lines(rng, (b"USER bot", b"PASS hunter2", b"STOR loot.bin",
                            b"RETR config", b"LIST", b"QUIT"))


def _parse_ftp(data: bytes) -> object:
    engine = FtpServerEngine(send=lambda _b: None,
                             accounts={"bot": "hunter2"})
    engine.feed(data)
    return engine


#: Every clause of the grammar once; ``{a}``-``{c}`` are random ports.
_DSL_PROGRAM = """\
outbound port {a}/tcp -> reflect smtp_sink
port {b}-{c}/udp content ~ "GET /grum/" -> forward
inbound port {b}/tcp content =~ "POST /[a-z]+/" -> limit 2500
port {c}/tcp -> redirect 10.3.0.9:25
inbound any -> drop
default -> rewrite"""
#: Tokens a clause's own check lets through to a constructor, or not.
_DSL_BREAKS = ('"(a|b"', '"a{99999999999}"', '"unclosed', '"\u20ac"',
               '"' + "(" * 600 + '"', "fast", "10.3.0:x", "65536/tcp",
               "tarpit", "==", "->", "-", "default", "")


def gen_dsl(rng: random.Random) -> bytes:
    """A policy program: a shuffled subset of the grammar's clauses on
    random ports, up to three words swapped for breaking ones."""
    a, b, c = sorted(rng.choice((25, 80, rng.randrange(65536)))
                     for _ in range(3))
    lines = _DSL_PROGRAM.format(a=a, b=b, c=c).split("\n")
    lines = rng.sample(lines[:-1], rng.randrange(1, 6)) + lines[-1:]
    words = "\n".join(lines).split(" ")
    for _ in range(rng.randrange(4)):
        words[rng.randrange(len(words))] = rng.choice(_DSL_BREAKS)
    return " ".join(words).encode("utf-8")


def _parse_dsl(data: bytes) -> object:
    try:
        return parse_program(data.decode("utf-8", "replace"))
    except DslError as error:           # the language's own ParseError
        raise ParseError("dsl", str(error)) from None


#: Values of the wrong shape for a field, an entry or a document.
_WRONG_SHAPES = ("tarpit", "", None, True, -1, 1e308, [], [1], {},
                 {"a": 1})


def _sites(table: Table, document: dict) -> list:
    """Every object in ``document`` with the table that describes it,
    and every list in it (with ``None``), depth first."""
    sites = [(table, document)]
    for key, (kind, _default) in table.fields.items():
        value = document.get(key)
        if isinstance(kind, list) and isinstance(value, list):
            sites.append((None, value))
            if isinstance(kind[0], Table):
                for item in value:
                    sites += _sites(kind[0], item)
        elif isinstance(kind, Table) and isinstance(value, dict):
            sites += _sites(kind, value)
    return sites


def wrong_shapes(rng: random.Random, table: Table, document: dict) -> bytes:
    """``document``, well-formed for ``table``, as JSON after up to two
    wrong-shape swaps drawn from the table: a field it names (present
    or not) set to a value of the wrong shape or dropped, an unknown
    key added, a list entry swapped, or the whole document swapped."""
    sites = _sites(table, document)
    for _ in range(rng.randrange(3)):
        site, node = rng.choice(sites)
        wrong, case = rng.choice(_WRONG_SHAPES), rng.randrange(4)
        if case == 0:
            document = wrong
        elif site is None:
            if node:
                node[rng.randrange(len(node))] = wrong
        elif case == 1:
            node.pop(rng.choice(list(site.fields)), None)
        else:
            node[rng.choice([*site.fields, "tarpit"])] = wrong
    return json.dumps(document, sort_keys=True).encode()


def _document_target(name: str, table: Table, build, read) -> FuzzTarget:
    """A solo target for a JSON document: ``build`` makes a well-formed
    one, :func:`wrong_shapes` breaks it, and ``read`` asks of it what
    its loader's callers ask.  ``ValueError`` is the taxonomy's
    ParseError here; what ``json`` itself refuses never reaches
    ``read``."""
    def parse(data: bytes) -> object:
        try:
            document = json.loads(data)
        except (ValueError, RecursionError) as error:
            raise ParseError(name, f"not JSON: {error}") from None
        try:
            return read(document)
        except ValueError as error:
            raise ParseError(name, str(error)) from None

    return FuzzTarget(name, lambda rng: wrong_shapes(rng, table, build(rng)),
                      parse)


def _fault_plan(rng: random.Random) -> dict:
    """Up to three well-formed specs, as a campaign payload carries
    them."""
    return {"specs": [{"kind": kind, "at": 10.0, "shard": rng.randrange(4),
                       "start": 5.0, "end": rng.choice((None, 50.0)),
                       rng.choice(("delay", "jitter", "extra")): 0.5}
                      for kind in rng.sample(sorted(KINDS),
                                             rng.randrange(4))]}


def _read_fault_plan(document: object) -> object:
    """What the isolation verifier and the campaign runner ask."""
    plan = FaultPlan.from_dict(document)
    return (plan.verdict_outage_windows("fuzz", 2), plan.worker_faults(),
            plan.digest())


def _farm_config(rng: random.Random) -> dict:
    """A config as a campaign shard carries it to its worker."""
    return FarmConfig(
        seed=rng.randrange(1 << 16),
        inbound_mode=rng.choice(list(InboundMode)),
        journal=rng.random() < 0.5,
        batch_window=rng.choice((None, 0.0, 0.005)),
        fault_plan=[{"kind": "cs_crash", "at": 10.0}]
        if rng.random() < 0.5 else None).to_dict()


def _certificate(rng: random.Random) -> dict:
    """A self-signed isolation certificate as a shard payload carries
    it back (zero to three grants)."""
    grants = [{"subfarm": "sf0", "vlan": rng.choice(("*", "3", "2-9")),
               "proto": rng.choice(("tcp", "udp")),
               "ports": sorted(rng.randrange(1, 1024) for _ in range(2)),
               "verdict": rng.choice(("FORWARD", "REFLECT|LIMIT")),
               "via": rng.choice(("policy", "pending"))}
              for _ in range(rng.randrange(4))]
    certificate = {"label": "fuzz", "states_explored": rng.randrange(99),
                   "grants": grants, "leak_count": 0,
                   "counterexample": None, "result": "CONTAINED"}
    certificate["digest"] = canonical_digest(certificate)
    return certificate


def _shard_spec(rng: random.Random) -> dict:
    """A spec as ``run_campaign`` sends it to a slot, with a worker
    fault stamped on it half the time."""
    index = rng.randrange(64)
    spec = ShardSpec(index, "repro.parallel.tasks:noop_shard",
                     {"seed": rng.randrange(1 << 31)},
                     timeout=rng.choice((None, 30.0)),
                     label=rng.choice((None, "fuzz"))).to_dict()
    if rng.random() < 0.5:
        spec["fault"] = FaultSpec(rng.choice(sorted(WORKER_KINDS)),
                                  shard=index).to_dict()
    return spec


def _shipped_back(out: dict, load) -> dict:
    """``out``, which ``load`` must read back to the same ``to_dict``."""
    if load(out).to_dict() != out:
        raise AssertionError(f"{load.__qualname__} does not round-trip")
    return out


def _worker_message(rng: random.Random) -> list:
    """One message of the worker wire vocabulary
    (:mod:`repro.parallel.transport`) as it stood when the tracked
    digest was recorded — ``run`` chunk lists, ``stop`` and ``idle``
    included; the decoder reads any JSON alike."""
    index = rng.randrange(64)
    return rng.choice((
        ["run", [{"index": index, "task": "repro.parallel.tasks:noop_shard",
                  "params": {"seed": rng.randrange(1 << 31)}}]],
        ["stop"],
        ["ready", {"host": "fuzz", "cpus": rng.randrange(1, 65)}],
        ["start", index],
        ["done", index, {"ok": rng.random() < 0.5,
                         "payload": {"x": rng.random(), "s": "€"}}],
        ["idle", rng.randrange(8)],
    ))


def _worker_frame_body(rng: random.Random) -> bytes:
    case = rng.randrange(6)
    if case == 0:                       # nesting bomb
        return rng.choice((b"[", b'{"a":')) * rng.choice(
            (8, 999, 5000, 200_000))
    if case == 1:                       # an int past the digit bound
        return b"9" * rng.randrange(4000, 4600)
    if case == 2:                       # not UTF-8
        return bytes(rng.randrange(128, 256)
                     for _ in range(rng.randrange(1, 16)))
    body = json.dumps(_worker_message(rng),
                      separators=(",", ":")).encode()
    if case == 3:                       # cut short
        return body[:rng.randrange(len(body))]
    return body


def gen_worker_frame(rng: random.Random) -> bytes:
    """A worker-transport byte stream: one to four length-prefixed JSON
    frames, each body valid or broken, each length true or lying."""
    out = bytearray()
    for _ in range(rng.randrange(1, 5)):
        body = _worker_frame_body(rng)
        length = len(body)
        roll = rng.random()
        if roll < 0.1:                  # past the frame bound
            length = MAX_FRAME_BYTES + rng.randrange(1, 1 << 20)
        elif roll < 0.2:                # short of its body
            length = rng.randrange(length + 1)
        out += struct.pack(">I", length) + body
    return bytes(out)


def _decode_frames(data: bytes, cuts) -> object:
    """What a fresh :class:`FrameDecoder` makes of ``data`` fed in the
    pieces ``cuts`` delimits: every message, or the error's text."""
    decoder, messages, start = FrameDecoder(), [], 0
    try:
        for end in [*cuts, len(data)]:
            messages += decoder.feed(data[start:end])
            start = end
    except TransportError as error:
        return str(error)
    return messages


def _parse_worker_frame(data: bytes) -> object:
    """Feed the stream whole and in a random chunking (drawn from the
    bytes, so replayable): both must decode the same messages or fail
    with the same :class:`TransportError`, which is the taxonomy's
    ParseError here."""
    rng = random.Random(zlib.crc32(data))
    cuts = sorted(rng.sample(range(1, len(data)),
                             min(len(data) - 1, rng.randrange(1, 9)))) \
        if len(data) > 1 else []
    whole, chunked = _decode_frames(data, []), _decode_frames(data, cuts)
    if whole != chunked:
        raise AssertionError(f"chunking {cuts} changed the decoding")
    if isinstance(whole, str):
        raise ParseError("worker-frame", whole)
    return whole


def hostile_frame(rng: random.Random) -> bytes:
    """A wire frame for farm-level fuzzing via ``ingest_wire``."""
    case = rng.randrange(4)
    if case == 0:
        return gen_ethernet(rng)
    if case == 1:                       # raw garbage
        return bytes(rng.randrange(256)
                     for _ in range(rng.randrange(0, 96)))
    if case == 2:                       # GRE bomb on the trunk
        packet = _packet(rng)
        for _ in range(rng.randrange(1, 12)):
            packet = encapsulate(packet, _ip(rng), _ip(rng))
        return EthernetFrame(_mac(rng), _mac(rng), packet,
                             vlan=rng.randrange(1, 4095)).to_bytes()
    # Plausible SYN from an inmate (well-formed: must be forwarded).
    syn = TCPSegment(rng.randrange(1024, 65536), 80,
                     seq=rng.randrange(1 << 32), flags=SYN)
    packet = IPv4Packet(IPv4Address(f"10.100.0.{rng.randrange(2, 250)}"),
                        _ip(rng), syn)
    return EthernetFrame(_mac(rng), _mac(rng), packet,
                         vlan=rng.randrange(2, 30)).to_bytes()


#: Every (generator, parser) pair the fuzz loops iterate, sorted by
#: name for deterministic round-robin scheduling.
TARGETS: Dict[str, FuzzTarget] = {
    target.name: target for target in [
        FuzzTarget("arp", gen_arp, ArpMessage.from_bytes),
        FuzzTarget("dhcp", gen_dhcp, DhcpMessage.from_bytes),
        FuzzTarget("dns", gen_dns, DnsMessage.from_bytes),
        FuzzTarget("dns-name", gen_dns_name, _parse_dns_name),
        FuzzTarget("ethernet", gen_ethernet, EthernetFrame.from_bytes),
        FuzzTarget("ftp", gen_ftp, _parse_ftp),
        FuzzTarget("gre", gen_gre, _parse_gre),
        FuzzTarget("http", gen_http, _parse_http),
        FuzzTarget("ipv4", gen_ipv4, IPv4Packet.from_bytes),
        FuzzTarget("irc", gen_irc, _parse_irc),
        FuzzTarget("shim-request", gen_request_shim, _parse_request_shim),
        FuzzTarget("shim-response", gen_response_shim, _parse_response_shim),
        FuzzTarget("smtp", gen_smtp, _parse_smtp),
        FuzzTarget("socks", gen_socks, _parse_socks),
        FuzzTarget("tcp", gen_tcp, TCPSegment.from_bytes),
        FuzzTarget("udp", gen_udp, UDPDatagram.from_bytes),
    ]
}

#: Parsers fuzzed outside the round-robin above, each by a loop and
#: under a FUZZ_quick.json key of its own (the key here;
#: ``runner.fuzz_target``): one more name in :data:`TARGETS` would move
#: the parser corpus digest that file tracks.  The policy language is
#: analyst text, a worker agent's port reads length-prefixed JSON
#: frames from anyone, a fault plan is the isolation verifier's other
#: input, a farm config rides in every campaign shard, an isolation
#: certificate comes back in a shard payload or from disk, and a shard
#: spec is what a slot reads off the campaign wire.
SOLO_TARGETS: Dict[str, FuzzTarget] = {
    "dsl": FuzzTarget("dsl", gen_dsl, _parse_dsl),
    "worker_frame": FuzzTarget("worker-frame", gen_worker_frame,
                               _parse_worker_frame),
    "fault_plan": _document_target("fault-plan", FAULT_PLAN, _fault_plan,
                                   _read_fault_plan),
    # Build the config a worker would, then ship it back.
    "farm_config": _document_target(
        "farm-config", Table("FarmConfig", FarmConfig.FIELDS), _farm_config,
        lambda document: _shipped_back(
            FarmConfig.from_dict(document).to_dict(), FarmConfig.from_dict)),
    # What verify, the campaign merge and the runtime cross-check ask.
    "certificate": _document_target(
        "certificate", CERTIFICATE, _certificate,
        lambda document: (
            verify_digest(document), merge_certificates([document] * 2),
            GrantIndex(document).cover(3, "tcp", "FORWARD", 80, "sf0"))),
    # What a slot checks before it runs a shard (it never imports the
    # task), then the spec shipped back.  The fault is mutated as a
    # fault spec, not as an opaque object.
    "shard_spec": _document_target(
        "shard-spec", Table("ShardSpec", dict(
            SHARD_SPEC.fields, fault=(FAULT_SPEC, None))), _shard_spec,
        lambda document: _shipped_back(
            read_spec(document)[0].to_dict(), ShardSpec.from_dict)),
}

__all__ = ["FuzzTarget", "SOLO_TARGETS", "TARGETS", "hostile_frame"]
