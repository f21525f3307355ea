"""A domain-specific containment policy language (§8 future work).

"The primary reason for our current use of Python is experience and
convenience, but the general-purpose nature of the language
complicates the creation of a tool-chain for processing policies ...
A more domain-specific, abstract language (like in Bro) could
simplify this."

This module implements that language.  A policy is a list of rules,
evaluated top to bottom; the first match wins; the mandatory
``default`` clause catches the rest.  Because rules are data, a
program compiles **once** (:func:`compile_table`) into a decision
table: per (direction, proto) the partition of ``[0, 65535]`` into port
atoms on the rules' boundaries, and per atom the ordered branches
(content matcher → action) of the rules covering it, ending in exactly
one unconditional branch — the first endpoint-only rule, or the
default.  First-match semantics live in that compiler and nowhere
else: the runtime (``decide`` / ``decide_content``), the parser's
shadow check (a rule that owns no branch in any atom can never fire,
whether one earlier rule covers it or several do between them) and the
isolation model (:meth:`DslPolicy.surface`) are readings of the table.
Two rules follow from its shape:

* **Content before fallback.**  An endpoint-only rule after content
  rules on the same atom is the atom's fallback; it does not pre-empt
  them.  ``decide`` returns None and the content decides.
* **One wait rule.**  ``decide_content`` walks the atom's branches in
  order; a branch that matches the bytes so far decides.  A prefix
  branch those bytes could still grow into holds the flow while fewer
  than 256 have arrived — nothing later, rule or default, pre-empts it
  — so a request split over segments gets the verdict it gets in one.
  (A regex branch sees the bytes that have arrived; it never holds.)

Grammar (one rule per line, ``#`` comments)::

    rule      := [guard] match "->" action
    guard     := "inbound" | "outbound"
    match     := "any" | port-spec [content-spec]
    port-spec := "port" NUMBER["-"NUMBER] ("/tcp" | "/udp")
    content-spec := "content" ("~" | "=~") STRING     # prefix / regex
    action    := "forward" | "drop"
               | "reflect" [SERVICE]
               | "redirect" IP [":" PORT]
               | "limit" RATE
               | "rewrite"
    default   := "default" action

Example::

    # Grum containment, as a policy program
    outbound port 25/tcp            -> reflect smtp_sink
    outbound port 80/tcp content ~ "GET /grum/" -> forward
    default                         -> reflect sink
"""

from __future__ import annotations

import re
import shlex
from bisect import bisect_right
from typing import List, Optional, Tuple

from repro.core.policy import (
    DIRECTIONS,
    PROTOS,
    ContainmentPolicy,
    PolicyContext,
    Surface,
    register_policy,
)
from repro.core.verdicts import ContainmentDecision
from repro.net.addresses import IPv4Address
from repro.net.packet import PROTO_TCP, PROTO_UDP


class DslError(ValueError):
    """Malformed policy program.

    Structured for tooling (the isolation verifier and tests match on
    these instead of parsing messages): ``reason`` is a stable
    kebab-case tag (``missing-default``, ``duplicate-default``,
    ``unknown-action``, ``bad-port-spec``, ``shadowed-rule``, ...),
    ``line_number`` the 1-based program line (None for whole-program
    errors), ``line`` the offending source text.
    """

    def __init__(self, message: str, reason: str = "syntax",
                 line_number: Optional[int] = None,
                 line: str = "") -> None:
        super().__init__(message)
        self.reason = reason
        self.line_number = line_number
        self.line = line


class Action:
    """A parsed action clause."""

    __slots__ = ("kind", "service", "target_ip", "target_port", "rate")

    def __init__(self, kind: str, service: Optional[str] = None,
                 target_ip: Optional[IPv4Address] = None,
                 target_port: Optional[int] = None,
                 rate: Optional[float] = None) -> None:
        self.kind = kind
        self.service = service
        self.target_ip = target_ip
        self.target_port = target_port
        self.rate = rate

    def __repr__(self) -> str:
        extras = self.service or self.target_ip or self.rate or ""
        return f"<Action {self.kind} {extras}>"


class Rule:
    """One ``match -> action`` line; ``any`` is ports 0-65535 of both
    protocols (``proto`` None)."""

    __slots__ = ("direction", "port_lo", "port_hi", "proto",
                 "content_prefix", "content_regex", "action", "line",
                 "line_number", "hits")

    def __init__(self, direction: Optional[str], port_lo: int,
                 port_hi: int, proto: Optional[int],
                 content_prefix: Optional[bytes],
                 content_regex: Optional["re.Pattern"],
                 action: Action, line: str,
                 line_number: Optional[int] = None) -> None:
        self.direction = direction
        self.port_lo = port_lo
        self.port_hi = port_hi
        self.proto = proto
        self.content_prefix = content_prefix
        self.content_regex = content_regex
        self.action = action
        self.line = line
        self.line_number = line_number
        self.hits = 0

    @property
    def needs_content(self) -> bool:
        return self.content_prefix is not None or self.content_regex is not None

    def matches_content(self, data: bytes) -> bool:
        if self.content_prefix is not None:
            return data.startswith(self.content_prefix)
        if self.content_regex is not None:
            return self.content_regex.match(data) is not None
        return True

    @property
    def content_class(self) -> str:
        """The name of the content this rule decides, as the isolation
        model's cells spell it."""
        if self.content_prefix is not None:
            return f"prefix:{self.content_prefix.decode('latin-1')!r}"
        if self.content_regex is not None:
            return f"regex:{self.content_regex.pattern.decode('latin-1')!r}"
        return "other"

    def content_covers(self, later: "Rule") -> bool:
        """Does this content rule fire on every content ``later`` fires
        on?  (What ports and directions they share is the table's
        business, not a pairwise question.)"""
        if self.content_prefix is not None:
            return (later.content_prefix is not None
                    and later.content_prefix.startswith(self.content_prefix))
        return (later.content_regex is not None
                and self.content_regex.pattern == later.content_regex.pattern)

    def __repr__(self) -> str:
        return f"<Rule {self.line!r}>"


_PORT_RE = re.compile(r"^(\d+)(?:-(\d+))?/(tcp|udp)$")


def _parse_action(tokens: List[str], line: str) -> Action:
    if not tokens:
        raise DslError(f"missing action in: {line!r}",
                       reason="missing-action", line=line)
    kind = tokens[0]
    rest = tokens[1:]
    if kind == "forward":
        return Action("forward")
    if kind == "drop":
        return Action("drop")
    if kind == "rewrite":
        return Action("rewrite")
    if kind == "reflect":
        return Action("reflect", service=rest[0] if rest else "sink")
    if kind == "redirect":
        if not rest:
            raise DslError(f"redirect needs a target in: {line!r}",
                           reason="missing-target", line=line)
        ip_text, _, port_text = rest[0].partition(":")
        return Action("redirect", target_ip=IPv4Address(ip_text),
                      target_port=int(port_text) if port_text else None)
    if kind == "limit":
        if not rest:
            raise DslError(f"limit needs a rate in: {line!r}",
                           reason="missing-rate", line=line)
        return Action("limit", rate=float(rest[0]))
    raise DslError(f"unknown action {kind!r} in: {line!r}",
                   reason="unknown-action", line=line)


def _parse_lines(text: str) -> Tuple[List[Rule], Action]:
    """Syntax only: the program's rules in order and its default."""
    rules: List[Rule] = []
    default: Optional[Action] = None

    def fail(message: str, reason: str) -> DslError:
        return DslError(f"line {line_number}: {message}", reason=reason,
                        line_number=line_number, line=line)

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise fail("expected 'match -> action'", "missing-arrow")
        match_text, _, action_text = line.partition("->")
        action = _parse_action(shlex.split(action_text.strip()), line)
        tokens = shlex.split(match_text.strip())

        if tokens and tokens[0] == "default":
            if default is not None:
                raise fail("duplicate default", "duplicate-default")
            default = action
            continue

        direction = None
        if tokens and tokens[0] in ("inbound", "outbound"):
            direction = tokens.pop(0)

        port_lo, port_hi, proto = 0, 65535, None
        content_prefix = content_regex = None
        index = 0
        while index < len(tokens):
            token = tokens[index]
            if token == "any":
                index += 1
            elif token == "port":
                if index + 1 >= len(tokens):
                    raise fail("port needs a spec", "bad-port-spec")
                spec = _PORT_RE.match(tokens[index + 1])
                if spec is None:
                    raise fail(f"bad port spec {tokens[index + 1]!r}",
                               "bad-port-spec")
                port_lo = int(spec.group(1))
                port_hi = int(spec.group(2) or port_lo)
                if not port_lo <= port_hi <= 65535:
                    raise fail("empty or out-of-range port spec "
                               f"{tokens[index + 1]!r}", "bad-port-spec")
                proto = PROTO_TCP if spec.group(3) == "tcp" else PROTO_UDP
                index += 2
            elif token == "content":
                if index + 2 >= len(tokens):
                    raise fail("content needs an operator and a pattern",
                               "bad-content-spec")
                operator = tokens[index + 1]
                pattern = tokens[index + 2]
                if operator == "~":
                    content_prefix = pattern.encode("latin-1")
                elif operator == "=~":
                    content_regex = re.compile(pattern.encode("latin-1"))
                else:
                    raise fail(f"bad content operator {operator!r}",
                               "bad-content-spec")
                index += 3
            else:
                raise fail(f"unexpected token {token!r}", "unexpected-token")

        rules.append(Rule(direction, port_lo, port_hi, proto,
                          content_prefix, content_regex, action, line,
                          line_number))
    if default is None:
        raise DslError("policy program needs a 'default -> action' clause",
                       reason="missing-default")
    return rules, default


def compile_table(rules: List[Rule], default: Action) -> dict:
    """First-match semantics, stated once (see the module docstring):
    ``(direction, proto) -> (ascending atom lower bounds, branches per
    atom)``.

    Raises ``DslError(reason="shadowed-rule")`` for the first rule that
    owns no branch in any atom: every flow it matches is decided ahead
    of it, so it is dead text — usually a mis-ordering that silently
    changes the decision table.
    """
    fallback = Rule(None, 0, 65535, None, None, None, default, "default")
    table = {}
    live = set()
    for direction in DIRECTIONS:
        for proto in PROTOS:
            applicable = [rule for rule in rules
                          if rule.direction in (None, direction)
                          and rule.proto in (None, proto)]
            edges = {0}
            for rule in applicable:
                edges.update((rule.port_lo, rule.port_hi + 1))
            los = sorted(edges - {65536})
            atoms = []
            for lo in los:
                # An atom lies wholly inside or outside every rule's
                # interval, so its lower bound speaks for all of it.
                branches: List[Rule] = []
                for rule in applicable:
                    if not rule.port_lo <= lo <= rule.port_hi or any(
                            earlier.content_covers(rule)
                            for earlier in branches):
                        continue
                    branches.append(rule)
                    live.add(rule)
                    if not rule.needs_content:
                        break
                else:
                    branches.append(fallback)
                atoms.append(branches)
            table[direction, proto] = (los, atoms)
    for rule in rules:
        if rule not in live:
            raise DslError(
                f"line {rule.line_number}: rule {rule.line!r} is fully "
                "shadowed by the rules before it — first match wins, so "
                "this rule can never fire (mis-ordered policy?)",
                reason="shadowed-rule",
                line_number=rule.line_number, line=rule.line)
    return table


def parse_program(text: str) -> tuple:
    """Parse a policy program; returns (rules, default_action).  The
    program is compiled too, so one with a dead rule is rejected."""
    rules, default = _parse_lines(text)
    compile_table(rules, default)
    return rules, default


@register_policy
class DslPolicy(ContainmentPolicy):
    """A containment policy compiled from a policy program."""

    name = "Dsl"

    def __init__(self, program: str = "default -> drop",
                 services=None, config=None) -> None:
        super().__init__(services, config)
        self.program = program
        self.rules, self.default_action = _parse_lines(program)
        self.table = compile_table(self.rules, self.default_action)

    # ------------------------------------------------------------------
    def _decision_for(self, ctx: PolicyContext,
                      action: Action) -> ContainmentDecision:
        if action.kind == "forward":
            return self.forward(ctx, annotation="dsl forward")
        if action.kind == "drop":
            return self.deny(ctx, annotation="dsl drop")
        if action.kind == "rewrite":
            return self.rewrite(ctx, annotation="dsl rewrite")
        if action.kind == "reflect":
            return self.reflect(ctx, action.service or "sink",
                                annotation="dsl reflect")
        if action.kind == "redirect":
            return self.redirect(ctx, action.target_ip, action.target_port,
                                 annotation="dsl redirect")
        if action.kind == "limit":
            return self.limit(ctx, action.rate, annotation="dsl limit")
        raise DslError(f"unhandled action kind {action.kind!r}")

    def _branches(self, ctx: PolicyContext) -> List[Rule]:
        """The branches of the atom ``ctx``'s flow falls in."""
        flow = ctx.flow
        los, atoms = self.table[
            "outbound" if ctx.inmate_is_originator else "inbound", flow.proto]
        return atoms[bisect_right(los, flow.resp_port) - 1]

    def decide(self, ctx: PolicyContext) -> Optional[ContainmentDecision]:
        branch = self._branches(ctx)[0]
        if branch.needs_content:
            return None  # wait for the first payload bytes
        branch.hits += 1
        return self._decision_for(ctx, branch.action)

    def decide_content(self, ctx: PolicyContext,
                       data: bytes) -> Optional[ContainmentDecision]:
        # The atom's last branch is unconditional, so the walk returns.
        for branch in self._branches(ctx):
            if branch.matches_content(data):
                branch.hits += 1
                return self._decision_for(ctx, branch.action)
            prefix = branch.content_prefix
            if (prefix is not None and len(data) < 256
                    and prefix.startswith(data)):
                return None  # more bytes could still make this one match

    def surface(self) -> Surface:
        ctx = self._surface_context()
        published: Surface = {}
        for key, (los, atoms) in self.table.items():
            his = [lo - 1 for lo in los[1:]] + [65535]
            published[key] = [
                (lo, hi, [("*" if len(branches) == 1 else branch.content_class,
                           self._decision_for(ctx, branch.action))
                          for branch in branches])
                for lo, hi, branches in zip(los, his, atoms)]
        return published

    def coverage(self) -> List[tuple]:
        """Per-rule hit counts — the policy-development feedback loop."""
        return [(r.line, r.hits) for r in self.rules]

    def describe(self) -> dict:
        """Self-description for the isolation verifier: the program
        text is the whole decision surface, so its digest pins the
        policy identity inside a certificate."""
        import hashlib
        digest = hashlib.sha256(self.program.encode("utf-8")).hexdigest()
        base = super().describe()
        base.update({"kind": "dsl", "program_digest": digest,
                     "rules": len(self.rules)})
        return base
