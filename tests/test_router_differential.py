"""The bare router against its parent-recorded differential corpus.

``tests/golden/router_scripts.json`` holds the sha256 of everything
observable — wire bytes per egress, counters, the flow log, per-flow
accounting, ``flowtable.stats()`` — after each of a thousand seeded
random scripts of :mod:`repro.fuzz.router`, recorded from the commit
before the router's flow index, leg-classification tree and
hand-written SHIM-phase relay were deleted.  Whatever the router is
made of now, it answers every script the same way.
"""

from __future__ import annotations

import pytest

from repro.fuzz.router import run_script
from repro.fuzz.runner import QUICK_ROUTER_SCRIPTS, fuzz_router
from tests.golden import script_digests, wire_digest

DIGESTS = script_digests()
CHUNK = 100


def test_the_corpus_is_the_size_the_issue_asked_for():
    assert len(DIGESTS) >= 800 and len(set(DIGESTS)) == len(DIGESTS)


@pytest.mark.parametrize("start", range(0, len(DIGESTS), CHUNK))
def test_router_answers_every_recorded_script_alike(start):
    moved = [seed for seed in range(start, min(start + CHUNK, len(DIGESTS)))
             if wire_digest(run_script(seed)) != DIGESTS[seed]]
    assert not moved, f"router scripts with a different outcome: {moved}"


def test_scripts_exercise_what_they_claim():
    """The corpus is only a net if the scripts reach the corners: over
    the first hundred, every verdict shape is enforced, flows end in
    every phase, rules time out both ways, and every counter moves."""
    phases, verdicts, table = set(), set(), {"idle": 0, "hard": 0}
    counters: dict = {}
    for seed in range(QUICK_ROUTER_SCRIPTS):
        state = run_script(seed)
        for flow in state["flows"]:
            phases.add(flow[1])
            verdicts.add(flow[2])
        for name, count in state["counters"].items():
            counters[name] = counters.get(name, 0) + count
        for reason, count in state["table"]["timeout_evictions"].items():
            table[reason] += count
    assert phases == {"shim", "handoff", "enforced", "dropped", "refused",
                      "closed"}
    assert verdicts >= {"FORWARD", "LIMIT", "DROP", "REDIRECT", "REFLECT",
                        "REWRITE", "LIMIT|REWRITE", "PENDING", "REFUSED"}
    assert table["idle"] and table["hard"]
    assert all(counters[name] for name in counters if name != "dhcp_leases")


def test_quick_slice_is_pinned_in_fuzz_quick_json():
    import json
    import os

    from repro.fuzz.runner import PINNED_NAME, REPO_ROOT

    with open(os.path.join(REPO_ROOT, PINNED_NAME)) as handle:
        pinned = json.load(handle)["router"]
    assert pinned == fuzz_router(QUICK_ROUTER_SCRIPTS)
