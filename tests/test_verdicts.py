"""Verdict's memoized answers against a flag-by-flag reference.

``validate`` / ``label`` / ``endpoint_op`` answer from per-value tables
(repro.core.verdicts); the reference below is the unmemoized definition
they replaced, evaluated over all 64 bit patterns.  And decisions: one
per policy action and one per response-shim tail, shared by every flow
they decide, so none may be modified.
"""

from __future__ import annotations

import pytest

from repro.core.dsl import DslPolicy
from repro.core.policy import PolicyContext
from repro.core.shim import ResponseShim
from repro.core.verdicts import ContainmentDecision, Verdict
from repro.net.addresses import IPv4Address
from repro.net.flow import FiveTuple
from repro.net.packet import PROTO_TCP

OPS = (Verdict.FORWARD, Verdict.LIMIT, Verdict.DROP, Verdict.REDIRECT,
       Verdict.REFLECT, Verdict.REWRITE)


def outcome(call):
    """``("ok", value)`` or ``("ValueError", message)``."""
    try:
        return ("ok", call())
    except ValueError as exc:
        return ("ValueError", str(exc))


def reference_label(verdict: Verdict) -> str:
    return "|".join(op.name for op in OPS if verdict & op) or "NONE"


def reference_endpoint_op(verdict: Verdict) -> Verdict:
    for op in (Verdict.DROP, Verdict.REDIRECT, Verdict.REFLECT,
               Verdict.FORWARD, Verdict.LIMIT):
        if verdict & op:
            return op
    raise ValueError(f"verdict {verdict!r} has no endpoint op")


def reference_validate(verdict: Verdict) -> None:
    endpoint_ops = [op for op in OPS[:5] if verdict & op]
    if not endpoint_ops and not verdict & Verdict.REWRITE:
        raise ValueError("verdict must include an operation")
    if len(endpoint_ops) > 1 and set(endpoint_ops) != {
            Verdict.FORWARD, Verdict.LIMIT}:
        raise ValueError(f"conflicting endpoint ops in {verdict!r}")
    if verdict & Verdict.DROP and verdict & Verdict.REWRITE:
        raise ValueError("DROP cannot combine with REWRITE")


@pytest.mark.parametrize("value", range(64))
def test_every_bit_pattern_matches_the_reference(value):
    verdict = Verdict(value)
    # Twice: the second answer comes from the table, and an invalid
    # combination must raise the same text every time.
    for _ in range(2):
        assert verdict.label == reference_label(verdict)
        assert Verdict.from_label(verdict.label) == verdict
        assert (outcome(lambda: verdict.endpoint_op)
                == outcome(lambda: reference_endpoint_op(verdict)))
        assert (outcome(verdict.validate)
                == outcome(lambda: reference_validate(verdict)))


def test_the_patterns_split_as_documented():
    valid = [value for value in range(64)
             if outcome(Verdict(value).validate)[0] == "ok"]
    # One endpoint op (5) or FORWARD|LIMIT (1), each with or without
    # REWRITE (x2) less DROP|REWRITE (1), plus REWRITE alone.
    assert len(valid) == 12
    assert Verdict(0).label == "NONE"
    assert (Verdict.REDIRECT | Verdict.REWRITE).label == "REDIRECT|REWRITE"


def test_world_reaching_is_spelled_once():
    """``grants_world``: FORWARD / LIMIT on their own, with or without
    content control — what every consumer (explorer, runtime coverage,
    surface invariants, health rules) now asks instead of spelling it."""
    valid = [Verdict(value) for value in range(64)
             if outcome(Verdict(value).validate)[0] == "ok"]
    assert {verdict.label for verdict in valid if verdict.grants_world} == {
        "FORWARD", "LIMIT", "FORWARD|LIMIT", "FORWARD|REWRITE",
        "LIMIT|REWRITE", "FORWARD|LIMIT|REWRITE"}
    # Text from disk: names from_label does not know contribute nothing.
    assert Verdict.from_label("FORWARD|BOGUS") == Verdict.FORWARD
    assert Verdict.from_label("") == Verdict(0)


SINK_A, SINK_B = IPv4Address("10.3.0.9"), IPv4Address("10.4.0.9")


def _decide(policy, port: int, sink: IPv4Address, sport: int = 40000):
    flow = FiveTuple(IPv4Address("10.3.0.2"), sport,
                     IPv4Address("93.184.216.34"), port, PROTO_TCP)
    ctx = PolicyContext(flow, 3, 0, 0.0, {"sink": (sink, 0)})
    return policy.decide(ctx)


def test_a_policy_shares_one_decision_per_action_and_sink():
    policy = DslPolicy("port 445/tcp -> reflect sink\n"
                       "port 80/tcp -> forward\n"
                       "default -> drop\n")
    for port in (80, 25):
        first, second = (_decide(policy, port, SINK_A, sport)
                         for sport in (40000, 40001))
        assert first is second
    a, b = (_decide(policy, 445, sink) for sink in (SINK_A, SINK_B))
    assert (a.target_ip, b.target_ip) == (SINK_A, SINK_B)
    assert _decide(policy, 445, SINK_A, 40002) is a


def test_a_decoded_tail_shares_its_decision_unless_it_names_a_target():
    flow = FiveTuple(IPv4Address("10.3.0.2"), 40000,
                     IPv4Address("93.184.216.34"), 80, PROTO_TCP)
    dropped = [ResponseShim.from_bytes(ResponseShim.from_decision(
        flow._replace(orig_port=port), ContainmentDecision.drop(
            policy="p", annotation="a")).to_bytes()).to_decision(flow)
        for port in (40000, 40001)]
    assert dropped[0] is dropped[1]
    assert (dropped[0].verdict, dropped[0].policy) == (Verdict.DROP, "p")
    reflected = [ResponseShim.from_bytes(ResponseShim.from_decision(
        flow, ContainmentDecision.reflect(sink, policy="p")).to_bytes()
    ).to_decision(flow) for sink in (SINK_A, SINK_B)]
    assert [d.target_ip for d in reflected] == [SINK_A, SINK_B]


@pytest.mark.parametrize("field", ["verdict", "target_ip", "target_port",
                                   "rate", "policy", "annotation"])
def test_a_decision_is_read_only(field):
    decision = ContainmentDecision.drop(policy="p")
    with pytest.raises(AttributeError):
        setattr(decision, field, None)
    assert (decision.verdict, decision.policy) == (Verdict.DROP, "p")
