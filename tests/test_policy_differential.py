"""The decision table a DSL policy executes, against a brute-force
first-match evaluator and the isolation model.

Random programs (single ports and ranges, both protocols, direction
guards, ``any``, prefix and regex content rules, all six actions) are
probed at every atom edge with content delivered in one to three
chunks, the way ``core/server.py`` drives a policy.  For every probe

* the rule that decided is the rule the reference picks, and
* the verdict issued is the model cell covering the probe's
  (direction, proto, port, content class);

every rule of an accepted program is hit by some probe, and the parser
rejects a program exactly when the reference finds a dead rule in it.

The reference below is the *specification*: rules in program order,
no atoms, no table.  Content pools are chosen so that what a rule can
match is decidable from a witness: no regex matches a string a pool
prefix starts, and each witness belongs to one pattern.

The library leg holds every registered policy class to the same
reference, read over the rules the class declares: the walker is
shared, so what differs per class is the rule list, its matchers' wait
rules, its address guards and its method-built decisions (where a
build declines, exactly its declared ``otherwise`` chain).  With the
whole content in hand (a datagram) every table decides.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from repro.core.dsl import DslError, DslPolicy
from repro.core.policy import (
    DECLINED,
    POLICY_REGISTRY,
    ContainmentPolicy,
    PolicyContext,
    Rule,
    UNBOUND,
    compile_table,
    policy_class,
)
from repro.core.verdicts import Verdict
from repro.net.addresses import IPv4Address
from repro.net.flow import FiveTuple
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.verify.model import compile_policy

SERVICES = {"sink": (IPv4Address("10.3.0.9"), 0),
            "smtp_sink": (IPv4Address("10.3.0.10"), 25)}
PROTO_NAMES = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}
VERDICTS = {"forward": "FORWARD", "drop": "DROP", "rewrite": "REWRITE",
            "reflect": "REFLECT", "redirect": "REDIRECT", "limit": "LIMIT"}

#: pattern -> a content only that pattern (and prefixes of it) matches
PREFIXES = {b"GET /": b"GET /~", b"GET /grum/": b"GET /grum/~",
            b"GET /evil": b"GET /evil~", b"POST ": b"POST ~", b"P": b"P~"}
REGEXES = {"HELO|EHLO": b"EHLO x", r"\d+ OK": b"220 OK",
           "[A-F]{2}:": b"AB:cd"}
OTHER = b"\x00\x01 neither"
DEFAULT, WAIT = "default", "wait"


class RuleSpec(NamedTuple):
    direction: Optional[str]
    proto: Optional[int]            # None: ``any``
    lo: int
    hi: int
    content: Optional[Tuple[str, object]]   # ("~", bytes) | ("=~", str)
    action: str
    dst = None                      # the grammar has no address guard

    def text(self) -> str:
        guard = f"{self.direction} " if self.direction else ""
        if self.proto is None:
            match = "any"
        else:
            span = str(self.lo) if self.lo == self.hi else f"{self.lo}-{self.hi}"
            match = f"port {span}/{PROTO_NAMES[self.proto]}"
            if self.content is not None:
                operator, pattern = self.content
                if operator == "~":
                    pattern = pattern.decode("latin-1")
                match += f' content {operator} "{pattern}"'
        return f"{guard}{match} -> {self.action}"

    def matches(self, data: bytes) -> bool:
        operator, pattern = self.content
        if operator == "~":
            return data.startswith(pattern)
        return re.match(pattern.encode("latin-1"), data) is not None

    def could_still_match(self, data: bytes) -> bool:
        operator, pattern = self.content
        return operator == "~" and len(data) < 256 and pattern.startswith(data)

    @property
    def content_class(self) -> str:
        if self.content is None:
            return "other"
        operator, pattern = self.content
        if operator == "~":
            return f"prefix:{pattern.decode('latin-1')!r}"
        return f"regex:{pattern!r}"


def program_text(rules: List[RuleSpec], default: str) -> str:
    return "\n".join([rule.text() for rule in rules]
                     + [f"default -> {default}"]) + "\n"


# ----------------------------------------------------------------------
# The reference: first match over the rule list, per concrete flow
# ----------------------------------------------------------------------
def reference(rules: list, direction: str, proto: int, port: int,
              deliveries: List[bytes], dst=None) -> Tuple[object, str]:
    """``(rule index | DEFAULT | WAIT, content class)`` for one flow to
    ``dst`` whose content arrives as the successive buffers
    ``deliveries`` (a datagram: the one buffer there will ever be)."""
    candidates: List[Tuple[object, object]] = []
    for index, rule in enumerate(rules):
        if (rule.direction in (None, direction)
                and rule.proto in (None, proto)
                and rule.lo <= port <= rule.hi):
            candidates.append((index, rule))
            if rule.content is None and rule.dst is None:
                break       # unconditional: nothing after it is consulted
    else:
        candidates.append((DEFAULT, None))
    if len(candidates) == 1:
        return candidates[0][0], "*"    # the endpoint alone decides
    for data in [None] + deliveries:    # None: the endpoint, no content yet
        for index, rule in candidates:
            if rule is None:
                return index, "other"
            if rule.dst not in (None, dst):
                continue
            if rule.content is None:
                return index, rule.content_class
            if data is None:
                break       # the endpoint cannot tell: first delivery
            if rule.matches(data):
                return index, rule.content_class
            if proto == PROTO_TCP and rule.could_still_match(data):
                break       # nothing later may pre-empt it: next delivery
    return WAIT, ""


# ----------------------------------------------------------------------
# The runtime, driven the way the containment server drives it
# ----------------------------------------------------------------------
def context(policy: ContainmentPolicy, direction: str, proto: int,
            port: int, dst: Optional[IPv4Address] = None) -> PolicyContext:
    outbound = direction == "outbound"
    inmate, world = IPv4Address("10.100.0.2"), IPv4Address("203.0.113.200")
    orig, resp = (inmate, world) if outbound else (world, inmate)
    flow = FiveTuple(orig, 4321, dst or resp, port, proto)
    return PolicyContext(flow, vlan_id=2, nonce_port=40000, now=0.0,
                         services=policy.services or SERVICES,
                         inmate_is_originator=outbound)


def serve(policy: ContainmentPolicy, direction: str, proto: int, port: int,
          chunks: Tuple[bytes, ...], dst: Optional[IPv4Address] = None):
    """``_CsConnection._on_data_body`` / ``_udp_datagram_body`` without
    the sockets: ``decide`` on the request shim, then ``decide_content``
    on the buffer after every segment (TCP, non-empty buffers only) or
    ``decide_datagram`` on the one datagram (UDP).  None: no verdict
    yet.  ``dst`` is the responder dialled, when the far end will not do."""
    ctx = context(policy, direction, proto, port, dst)
    decision = policy.decide(ctx)
    if decision is not None:
        return decision
    if proto == PROTO_UDP:
        return policy.decide_datagram(ctx, b"".join(chunks))
    buffer = bytearray()
    for chunk in chunks:
        buffer.extend(chunk)
        if buffer:
            decision = policy.decide_content(ctx, bytes(buffer))
            if decision is not None:
                return decision
    return None


def buffers(chunks: Tuple[bytes, ...], proto: int) -> List[bytes]:
    """What ``serve`` shows ``decide_content`` for these chunks."""
    if proto == PROTO_UDP:
        return [b"".join(chunks)]
    seen = [b"".join(chunks[:count]) for count in range(1, len(chunks) + 1)]
    return [data for data in seen if data]


def chunkings(content: bytes, cuts: Tuple[int, int]) -> List[tuple]:
    """The content whole, in two and in three chunks."""
    first, second = sorted(cut % (len(content) + 1) for cut in cuts)
    return [(content,),
            (content[:first], content[first:]),
            (content[:first], content[first:second], content[second:])]


def edge_ports(rules: List[RuleSpec]) -> List[int]:
    ports = {0, 65535}
    for rule in rules:
        ports.update((rule.lo - 1, rule.lo, rule.hi, rule.hi + 1))
    return sorted(port for port in ports if 0 <= port <= 65535)


def contents(rules: List[RuleSpec]) -> List[bytes]:
    """A witness per content pattern in the program, a proper prefix of
    each prefix pattern (the wait rule's case), one no rule wants, and
    none at all."""
    out = {OTHER, b""}
    for rule in rules:
        if rule.content is None:
            continue
        operator, pattern = rule.content
        if operator == "~":
            out.update((PREFIXES[pattern], pattern[:-1]))
        else:
            out.add(REGEXES[pattern])
    return sorted(out)


def cell_for(model, direction: str, proto: int, port: int, content: str):
    (cell,) = [cell for cell in model.cells(direction, proto)
               if cell.port_lo <= port <= cell.port_hi
               and cell.content == content]
    return cell


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------
PORT_POOL = [0, 1, 24, 25, 79, 80, 81, 90, 443, 8080, 65534, 65535]


@st.composite
def rule_specs(draw, index: int) -> RuleSpec:
    direction = draw(st.sampled_from([None, None, "inbound", "outbound"]))
    # Rates and redirect ports are the rule's index, so two rules of
    # one kind still issue distinguishable decisions.
    action = draw(st.sampled_from([
        "forward", "drop", "rewrite", "reflect sink", "reflect smtp_sink",
        f"redirect 10.3.0.9:{8000 + index}", "redirect 203.0.113.99",
        f"limit {1000 + index}"]))
    if draw(st.integers(0, 7)) == 0:
        return RuleSpec(direction, None, 0, 65535, None, action)
    lo = draw(st.sampled_from(PORT_POOL))
    hi = draw(st.sampled_from([lo] + [p for p in PORT_POOL if p >= lo]))
    content = draw(st.one_of(
        st.none(),
        st.sampled_from(sorted(PREFIXES)).map(lambda p: ("~", p)),
        st.sampled_from(sorted(REGEXES)).map(lambda p: ("=~", p))))
    return RuleSpec(direction, draw(st.sampled_from([PROTO_TCP, PROTO_UDP])),
                    lo, hi, content, action)


@st.composite
def programs(draw) -> Tuple[List[RuleSpec], str]:
    count = draw(st.integers(1, 6))
    rules = [draw(rule_specs(index)) for index in range(count)]
    default = draw(st.sampled_from(
        ["drop", "forward", "reflect sink", "limit 7", "rewrite",
         "redirect 10.3.0.9"]))
    return rules, default


def tcp80(content, action) -> RuleSpec:
    return RuleSpec(None, PROTO_TCP, 80, 80, content, action)


#: An endpoint-only rule after a content rule on the same atom is that
#: atom's fallback: at the parent it pre-empted the content rule.
WHITELIST = ([tcp80(("~", b"GET /grum/"), "forward"),
              tcp80(None, "reflect sink")], "drop")
BLACKLIST = ([tcp80(("~", b"GET /evil"), "drop"),
              tcp80(None, "forward")], "drop")
#: A prefix that could still match holds the flow: the shorter prefix
#: after it must not claim ``GET /gr`` before the rest has arrived.
NESTED = ([tcp80(("~", b"GET /grum/"), "forward"),
           tcp80(("~", b"GET /"), "drop")], "reflect sink")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(program=programs(),
       cuts=st.tuples(st.integers(0, 40), st.integers(0, 40)))
@example(program=WHITELIST, cuts=(3, 7))
@example(program=BLACKLIST, cuts=(3, 7))
@example(program=NESTED, cuts=(7, 9))
def test_runtime_reference_and_model_agree(program, cuts):
    rules, default = program
    expected = {
        (direction, proto, port, chunks): reference(
            rules, direction, proto, port, buffers(chunks, proto))
        for direction in ("outbound", "inbound")
        for proto in (PROTO_TCP, PROTO_UDP)
        for port in edge_ports(rules)
        for content in contents(rules)
        for chunks in chunkings(content, cuts)}
    alive = {index for index, _ in expected.values()}
    dead = [index for index in range(len(rules)) if index not in alive]

    try:
        policy = DslPolicy(program_text(rules, default), services=SERVICES)
    except DslError as error:
        # Rejected exactly for its first dead rule (line = index + 1).
        assert error.reason == "shadowed-rule"
        assert dead and error.line_number == dead[0] + 1
        return
    assert not dead, f"accepted with dead rule(s) {dead}"

    model = compile_policy(policy)
    for (direction, proto, port, chunks), (index, content) in expected.items():
        before = [rule.hits for rule in policy.rules]
        decision = serve(policy, direction, proto, port, chunks)
        fired = [i for i, rule in enumerate(policy.rules)
                 if rule.hits != before[i]]
        where = f"{direction} {PROTO_NAMES[proto]}:{port} {chunks!r}"
        if index == WAIT:
            assert decision is None and not fired, where
            continue
        assert decision is not None, where
        assert fired == ([] if index == DEFAULT else [index]), where
        action = default if index == DEFAULT else rules[index].action
        assert decision.verdict.label == VERDICTS[action.split()[0]], where
        cell = cell_for(model, direction, proto, port, content)
        assert (cell.verdict, cell.rate, cell.target) == (
            decision.verdict.label, decision.rate,
            str(decision.target_ip) if decision.target_ip else None), where
    assert all(hits for _line, hits in policy.coverage())


# ----------------------------------------------------------------------
# The two shapes the table fixed, spelled out
# ----------------------------------------------------------------------
WHITELIST_TEXT = program_text(*WHITELIST)
BLACKLIST_TEXT = program_text(*BLACKLIST)


def verdict(policy, chunks, port=80, proto=PROTO_TCP):
    decision = serve(policy, "outbound", proto, port, chunks)
    return decision and decision.verdict.label


def test_whitelist_fallback_rule_does_not_preempt_the_content_rule():
    policy = DslPolicy(WHITELIST_TEXT, services=SERVICES)
    assert verdict(policy, ()) is None          # the endpoint cannot tell
    assert verdict(policy, (b"GET /grum/spm?id=1 HTTP/1.1\r\n",)) == "FORWARD"
    assert verdict(policy, (b"GET /index.html HTTP/1.1\r\n",)) == "REFLECT"
    assert verdict(policy, (b"anything",), port=81) == "DROP"


def test_blacklist_fallback_rule_does_not_preempt_the_content_rule():
    policy = DslPolicy(BLACKLIST_TEXT, services=SERVICES)
    assert verdict(policy, ()) is None
    assert verdict(policy, (b"GET /evil.exe HTTP/1.1\r\n",)) == "DROP"
    assert verdict(policy, (b"GET /index.html HTTP/1.1\r\n",)) == "FORWARD"


def test_model_and_runtime_agree_on_both_shapes():
    requests = {"prefix:'GET /grum/'": b"GET /grum/x", "other": b"HEAD /",
                "prefix:'GET /evil'": b"GET /evil.exe"}
    for text in (WHITELIST_TEXT, BLACKLIST_TEXT):
        policy = DslPolicy(text, services=SERVICES)
        cells = [cell for cell in compile_policy(policy).cells(
            "outbound", PROTO_TCP) if cell.port_lo == 80]
        assert len(cells) == 2
        for cell in cells:
            assert verdict(policy, (requests[cell.content],)) == cell.verdict


def test_split_request_line_gets_the_verdict_it_gets_whole():
    """One wait rule, whether the atom's fallback is a rule (the two
    shapes) or the default: however the request line is cut into one to
    three segments, the verdict is the one the whole line gets."""
    default_fallback = ('port 80/tcp content ~ "GET /grum/" -> forward\n'
                        "default -> reflect sink\n")
    lines = [b"GET /grum/spm HTTP/1.1\r\n", b"GET /evil.exe HTTP/1.1\r\n",
             b"GET /gr HTTP/1.1\r\n", b"POST / HTTP/1.1\r\n"]
    for text in (WHITELIST_TEXT, BLACKLIST_TEXT, default_fallback):
        policy = DslPolicy(text, services=SERVICES)
        for line in lines:
            whole = verdict(policy, (line,))
            assert whole is not None
            for first in range(len(line) + 1):
                for second in range(first, len(line) + 1):
                    chunks = (line[:first], line[first:second], line[second:])
                    assert verdict(policy, chunks) == whole, (text, chunks)


# ----------------------------------------------------------------------
# The library: every registered class, held to the same reference
# ----------------------------------------------------------------------
from tests.test_policy_decisions import CONTENT  # noqa: E402

SINK_ONLY = {"sink": SERVICES["sink"]}


class Declared:
    """A declared :class:`Rule` as ``reference`` reads a ``RuleSpec``:
    what it matches is the rule's own data (matcher, wait rule, address
    guard), never the table or the walker."""

    def __init__(self, rule: Rule) -> None:
        self.direction, self.proto = rule.direction, rule.proto
        self.lo, self.hi = rule.port_lo, rule.port_hi
        self.content, self.dst = rule.content, rule.dst
        self.content_class = rule.content_class

    def matches(self, data: bytes) -> bool:
        return bool(self.content.matches(data))

    def could_still_match(self, data: bytes) -> bool:
        return self.content.holds(data)


def registered() -> List[str]:
    policy_class("Grum")        # loads the library
    import repro.baselines      # noqa: F401 - registers the baselines
    return sorted(POLICY_REGISTRY)


@pytest.mark.parametrize("services", [SERVICES, SINK_ONLY],
                         ids=["both-sinks", "sink-only"])
@pytest.mark.parametrize("name", registered())
def test_library_policy_agrees_with_reference_and_model(name, services):
    policy = POLICY_REGISTRY[name](services=dict(services))
    # One rule list for the walker, the reference and the hit counts.
    declared = policy.declare()
    policy.declare = lambda: declared
    assert compile_table(declared, policy.default)[1] == [], "dead rule"
    rules = [Declared(rule) for rule in declared]
    model = compile_policy(policy)

    # Per content rule: one content it matches, the start of that (its
    # wait rule's case) and one it has given up on; plus none at all.
    witnesses = {OTHER, b""}
    for rule in rules:
        if rule.content is not None:
            wanted = [data for data in CONTENT.values() if rule.matches(data)]
            refused = [data for data in CONTENT.values() if not (
                rule.matches(data) or rule.could_still_match(data))]
            assert wanted and refused, f"no witness for {rule.content_class}"
            witnesses.update((wanted[0], wanted[0][:3], refused[0]))
    responders = {None} | {rule.dst for rule in rules}

    for direction in ("outbound", "inbound"):
        for proto in (PROTO_TCP, PROTO_UDP):
            for port in edge_ports(rules):
                for dst in responders:
                    for content in sorted(witnesses):
                        for chunks in chunkings(content, (5, 17)):
                            _check_probe(policy, declared, rules, model,
                                         direction, proto, port, dst, chunks)
    assert all(rule.hits for rule in declared)


def _issued(decision):
    return (decision.verdict, decision.target_ip, decision.target_port,
            decision.rate, decision.annotation)


@pytest.mark.parametrize("name", registered())
def test_a_sinkless_surface_is_what_its_walker_decides(name):
    """Under no service at all, every atom's unconditional cell is the
    decision the walker issues there; where it can issue none (a
    reflect to a missing service that names no alternative), the cell
    is a reflect published to UNBOUND.  A reflect looked up once must
    not bind its service for the atoms after it."""
    policy = POLICY_REGISTRY[name]()
    for key, atoms in policy.surface().items():
        for (lo, _hi, published), branches in zip(atoms, policy.table[key][1]):
            if branches[-1].action.build is not None:
                continue    # decided per flow: the library leg's case
            ctx = context(policy, *key, lo)
            ctx.services = {}
            where = f"{key[0]} {PROTO_NAMES[key[1]]}:{lo}"
            cell = published[-1][1]
            try:
                decision = policy.decide_datagram(ctx, OTHER)
            except KeyError:
                assert (cell.verdict, cell.target_ip) == (
                    Verdict.REFLECT, UNBOUND), where
                continue
            assert _issued(cell) == _issued(decision), where


def _check_probe(policy, declared, rules, model, direction, proto, port,
                 dst, chunks) -> None:
    index, content = reference(rules, direction, proto, port,
                               buffers(chunks, proto), dst)
    before = [rule.hits for rule in declared]
    decision = serve(policy, direction, proto, port, chunks, dst)
    fired = [i for i, rule in enumerate(declared) if rule.hits != before[i]]
    where = f"{direction} {PROTO_NAMES[proto]}:{port} to {dst} {chunks!r}"
    if index == WAIT:
        assert decision is None and not fired, where
        return
    assert decision is not None, where
    assert fired == ([] if index == DEFAULT else [index]), where
    cell = cell_for(model, direction, proto, port, content)
    action = policy.default if index == DEFAULT else declared[index].action
    if action.build is not None and decision.verdict.label != cell.verdict:
        # The build declined: the walker answers the declared
        # ``otherwise`` chain, which the model's cell need not name.
        action = action.otherwise or DECLINED
    else:
        # The model cell covering the probe holds the decision issued:
        # the verdict kind a rule declares binds a built decision too.
        assert (cell.verdict, cell.rate, cell.target) == (
            decision.verdict.label, decision.rate,
            str(decision.target_ip) if decision.target_ip else None), where
    if action.build is None:
        while action.otherwise and action.service not in policy.services:
            action = action.otherwise
        assert decision.annotation == action.annotation, where
    assert decision.verdict.label == action.kind.upper(), where


# ----------------------------------------------------------------------
# A datagram is the whole content: every table decides it
# ----------------------------------------------------------------------
def always_decides(policy: ContainmentPolicy, rules: list, payloads,
                   responders=(None,)) -> None:
    """``decide_datagram`` answers at every atom edge, both directions,
    TCP and UDP, for every payload: no branch may hold out for bytes
    that will never come, so the server needs no answer of its own."""
    for direction in ("outbound", "inbound"):
        for proto in (PROTO_TCP, PROTO_UDP):
            for port in edge_ports(rules):
                for dst in responders:
                    for data in payloads:
                        ctx = context(policy, direction, proto, port, dst)
                        assert policy.decide_datagram(ctx, data) is not None, (
                            f"{direction} {PROTO_NAMES[proto]}:{port} "
                            f"to {dst} {data!r}")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(program=programs())
@example(program=NESTED)
def test_decide_datagram_decides_every_program(program):
    rules, default = program
    try:
        policy = DslPolicy(program_text(rules, default), services=SERVICES)
    except DslError:
        return      # a dead rule: no table to walk
    always_decides(policy, rules, contents(rules))


@pytest.mark.parametrize("name", registered())
def test_decide_datagram_decides_every_library_table(name):
    policy = POLICY_REGISTRY[name](services=dict(SERVICES))
    rules = [Declared(rule) for rule in policy.declare()]
    always_decides(policy, rules, sorted(set(CONTENT.values()) | {OTHER}),
                   {None} | {rule.dst for rule in rules})
