"""Verdict's memoized answers against a flag-by-flag reference.

``validate`` / ``label`` / ``endpoint_op`` answer from per-value tables
(repro.core.verdicts); the reference below is the unmemoized definition
they replaced, evaluated over all 64 bit patterns.
"""

from __future__ import annotations

import pytest

from repro.core.verdicts import Verdict

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
