"""A domain-specific containment policy language (§8 future work).

"The primary reason for our current use of Python is experience and
convenience, but the general-purpose nature of the language
complicates the creation of a tool-chain for processing policies ...
A more domain-specific, abstract language (like in Bro) could
simplify this."

This module implements that language.  A policy is a list of rules,
evaluated top to bottom; the first match wins; the mandatory
``default`` clause catches the rest.  A program parses into the rule IR
every policy class declares (:mod:`repro.core.policy`, which also says
what the table looks like and how it is walked: content before
fallback, one wait rule) and compiles **once** into the decision table
the base class executes and publishes.  What is left here is the
grammar, and the parser's shadow check: a rule that owns no branch in
any port atom can never fire — whether one earlier rule covers it or
several do between them — and is rejected.

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
from typing import List, Optional, Tuple

from repro.core.policy import (
    Action,
    ContainmentPolicy,
    Content,
    Rule,
    compile_table,
    register_policy,
)
from repro.net.addresses import IPv4Address
from repro.net.packet import PROTO_TCP, PROTO_UDP


class DslError(ValueError):
    """Malformed policy program.

    Structured for tooling (the isolation verifier and tests match on
    these instead of parsing messages): ``reason`` is a stable
    kebab-case tag (``missing-default``, ``duplicate-default``,
    ``unknown-action``, ``bad-port-spec``, ``bad-value``,
    ``shadowed-rule``, ...),
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


_PORT_RE = re.compile(r"^(\d+)(?:-(\d+))?/(tcp|udp)$")


def _parse_action(tokens: List[str], line: str) -> Action:
    if not tokens:
        raise DslError(f"missing action in: {line!r}",
                       reason="missing-action", line=line)
    kind = tokens[0]
    rest = tokens[1:]
    annotation = f"dsl {kind}"
    if kind in ("forward", "drop", "rewrite"):
        return Action(kind, annotation)
    if kind == "reflect":
        return Action(kind, annotation, rest[0] if rest else "sink")
    if kind == "redirect":
        if not rest:
            raise DslError(f"redirect needs a target in: {line!r}",
                           reason="missing-target", line=line)
        ip_text, _, port_text = rest[0].partition(":")
        return Action(kind, annotation, target_ip=IPv4Address(ip_text),
                      target_port=int(port_text) if port_text else None)
    if kind == "limit":
        if not rest:
            raise DslError(f"limit needs a rate in: {line!r}",
                           reason="missing-rate", line=line)
        return Action(kind, annotation, rate=float(rest[0]))
    raise DslError(f"unknown action {kind!r} in: {line!r}",
                   reason="unknown-action", line=line)


def _parse_match(tokens: List[str], fail) -> dict:
    """A match clause's tokens as :class:`Rule` arguments; ``fail``
    builds the line's :class:`DslError`."""
    match = {}
    if tokens and tokens[0] in ("inbound", "outbound"):
        match["direction"] = tokens.pop(0)
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
            match["ports"] = (port_lo, port_hi)
            match["proto"] = (PROTO_TCP if spec.group(3) == "tcp"
                              else PROTO_UDP)
            index += 2
        elif token == "content":
            if index + 2 >= len(tokens):
                raise fail("content needs an operator and a pattern",
                           "bad-content-spec")
            operator = tokens[index + 1]
            pattern = tokens[index + 2].encode("latin-1")
            if operator == "~":
                match["content"] = Content.prefix(pattern)
            elif operator == "=~":
                match["content"] = Content.regex(re.compile(pattern))
            else:
                raise fail(f"bad content operator {operator!r}",
                           "bad-content-spec")
            index += 3
        else:
            raise fail(f"unexpected token {token!r}", "unexpected-token")
    return match


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
        try:
            action = _parse_action(shlex.split(action_text.strip()), line)
            tokens = shlex.split(match_text.strip())
            if tokens[:1] != ["default"]:
                rules.append(Rule(action, line=line, line_number=line_number,
                                  **_parse_match(tokens, fail)))
                continue
        except DslError:
            raise
        except (ValueError, ArithmeticError, RecursionError,
                re.error) as error:
            # Quoting, a number, an address or a pattern that the
            # constructor it was handed to refused.
            raise fail(str(error), "bad-value") from None
        if default is not None:
            raise fail("duplicate default", "duplicate-default")
        default = action
    if default is None:
        raise DslError("policy program needs a 'default -> action' clause",
                       reason="missing-default")
    return rules, default


def _live_table(rules: List[Rule], default: Action) -> dict:
    """The program's decision table, or ``DslError(reason=
    "shadowed-rule")`` for its first dead rule: every flow it matches
    is decided ahead of it, so it is dead text — usually a mis-ordering
    that silently changes the decision table."""
    table, dead = compile_table(rules, default)
    if dead:
        rule = dead[0]
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
    _live_table(rules, default)
    return rules, default


@register_policy
class DslPolicy(ContainmentPolicy):
    """A containment policy compiled from a policy program."""

    name = "Dsl"

    # Frozen names, as on AllowAll (docs/PERFORMANCE.md).
    decide = ContainmentPolicy.decide
    decide_content = ContainmentPolicy.decide_content

    def __init__(self, program: str = "default -> drop",
                 services=None, config=None) -> None:
        super().__init__(services, config)
        self.program = program
        self.rules, self.default = _parse_lines(program)
        self.table = _live_table(self.rules, self.default)

    def declare(self) -> List[Rule]:
        return self.rules

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
