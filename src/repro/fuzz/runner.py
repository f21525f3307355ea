"""Parser-level and farm-level fuzz loops, plus the pinned quick mode.

Two loops, one contract (docs/HARDENING.md) — and a third, differential
one for the router, :func:`fuzz_router`:

* :func:`fuzz_parsers` drives every registered
  :class:`~repro.fuzz.generators.FuzzTarget` round-robin with
  generated-then-mutated inputs.  A parser may succeed or raise
  :class:`~repro.net.errors.ParseError`; anything else is an *escape*,
  which gets minimized and pinned into a corpus directory.
  :func:`fuzz_target` runs the same loop over one of
  :data:`~repro.fuzz.generators.SOLO_TARGETS`, each under a pinned key
  of its own.
* :func:`fuzz_farm` builds a whole farm and feeds
  :func:`~repro.fuzz.generators.hostile_frame` bytes straight into the
  gateway trunk (``SubfarmRouter.ingest_wire``).  The malice barrier
  must absorb everything — the run itself completing *is* the
  assertion that no hostile input unwinds the event loop.

Determinism: both loops draw all randomness from ``random.Random``
instances derived from the caller's seed, so the corpus digest (a
sha256 over every generated input) is byte-identical across machines.
:func:`run_quick` asserts this by running the parser loop twice and by
comparing against the digests tracked in ``FUZZ_quick.json``
(``make fuzz-quick``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, List, Optional

from repro.fuzz.corpus import CorpusStore, minimize
from repro.fuzz.generators import (
    SOLO_TARGETS,
    TARGETS,
    FuzzTarget,
    hostile_frame,
)
from repro.fuzz.mutate import MutationEngine
from repro.net.errors import ParseError

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))
PINNED_NAME = "FUZZ_quick.json"

QUICK_SEED = 1211
QUICK_ITERATIONS = 2000
QUICK_FRAMES = 300
QUICK_ROUTER_SCRIPTS = 100
QUICK_SOLO_ITERATIONS = 500

#: Fraction of parser-loop inputs that get a second, grammar-blind
#: mutation pass on top of the grammar-aware generator output.
MUTATE_RATE = 0.5


def _escape_of(parse, data: bytes) -> Optional[BaseException]:
    """The exception ``parse`` leaks for ``data``, if it breaks the
    succeed-or-ParseError contract; None otherwise."""
    try:
        parse(data)
    except ParseError:
        return None
    except Exception as exc:  # noqa: BLE001 - the hunted signal
        return exc
    return None


def fuzz_parsers(seed: int, iterations: int,
                 corpus_dir: Optional[str] = None) -> dict:
    """Round-robin every wire-format target for ``iterations`` inputs;
    minimize and pin any escape into ``corpus_dir`` (when given)."""
    return _fuzz_targets(TARGETS, seed, iterations, corpus_dir)


def fuzz_target(target: FuzzTarget, seed: int, iterations: int,
                corpus_dir: Optional[str] = None) -> dict:
    """The same loop over one target alone: the policy-language parser,
    the worker frame decoder, the fault plan, the farm config, an
    isolation certificate or a shard spec (docs/HARDENING.md)."""
    return _fuzz_targets({target.name: target}, seed, iterations,
                         corpus_dir)


def _fuzz_targets(targets: dict, seed: int, iterations: int,
                  corpus_dir: Optional[str]) -> dict:
    rng = random.Random(seed)
    engine = MutationEngine(seed ^ 0x5EED5EED)
    names = sorted(targets)
    store = CorpusStore(corpus_dir) if corpus_dir else None

    digest = hashlib.sha256()
    ok = parse_errors = mutated = 0
    escapes: List[dict] = []
    for index in range(iterations):
        name = names[index % len(names)]
        target = targets[name]
        data = target.generate(rng)
        if rng.random() < MUTATE_RATE:
            data = engine.mutate(data)
            mutated += 1
        digest.update(name.encode())
        digest.update(len(data).to_bytes(4, "big"))
        digest.update(data)

        exc = _escape_of(target.parse, data)
        if exc is None:
            try:
                target.parse(data)
                ok += 1
            except ParseError:
                parse_errors += 1
            continue

        shrunk = minimize(
            data, lambda d: _escape_of(target.parse, d) is not None)
        entry = {
            "protocol": name,
            "iteration": index,
            "exception": type(exc).__name__,
            "message": str(exc)[:200],
            "input_len": len(data),
            "minimized_len": len(shrunk),
        }
        if store is not None:
            entry["pinned"] = os.path.basename(store.add(name, shrunk))
        escapes.append(entry)

    return {
        "seed": seed,
        "iterations": iterations,
        "targets": len(names),
        "ok": ok,
        "parse_errors": parse_errors,
        "mutated": mutated,
        "escapes": escapes,
        "digest": digest.hexdigest(),
    }


def fuzz_farm(seed: int, frames: int, policy: str = "isolate",
              spacing: float = 0.05, settle: float = 30.0) -> dict:
    """Feed ``frames`` hostile wire frames into a live subfarm trunk.

    Returning at all means the event loop survived; the barrier summary
    says what it absorbed.  Any exception unwinding ``farm.run`` is a
    containment failure and propagates to the caller.
    """
    from repro.farm import Farm, FarmConfig

    rng = random.Random(seed ^ 0xF00DF00D)
    # The journal rides along so every quarantine decision is audited
    # (docs/OBSERVABILITY.md); it never feeds the frame/barrier digest,
    # so pinned digests are unaffected.
    farm = Farm(FarmConfig(seed=seed, malice_policy=policy,
                           journal=True))
    sub = farm.create_subfarm("fuzz")
    router = sub.router

    digest = hashlib.sha256()
    when = 1.0
    for _ in range(frames):
        data = hostile_frame(rng)
        vlan = rng.randrange(1, 31)
        digest.update(vlan.to_bytes(2, "big"))
        digest.update(len(data).to_bytes(4, "big"))
        digest.update(data)
        farm.sim.schedule(when,
                          lambda v=vlan, d=data: router.ingest_wire(v, d),
                          label="fuzz-frame")
        when += spacing
    farm.run(until=when + settle)

    summary = router.barrier.summary()
    digest.update(json.dumps(summary, sort_keys=True).encode())
    journal = farm.journal
    quarantine_events = sum(
        1 for event in journal.events()
        if event.kind == "barrier.quarantine")
    return {
        "seed": seed,
        "policy": policy,
        "frames": frames,
        "virtual_seconds": farm.sim.now,
        "events": farm.sim.events_processed,
        "barrier": summary,
        "survived": True,
        "digest": digest.hexdigest(),
        "journal_events": journal.recorded,
        "journal_quarantines": quarantine_events,
        "journal_digest": journal.digest(),
    }


def fuzz_router(scripts: int) -> dict:
    """Run router scripts ``0..scripts-1`` (:mod:`repro.fuzz.router`)
    and fold their digests into one: any observable change in the bare
    router's behaviour — wire bytes, counters, per-flow accounting,
    table statistics — on any script moves it."""
    from repro.fuzz.router import digest, run_script

    rollup = hashlib.sha256()
    for seed in range(scripts):
        rollup.update(digest(run_script(seed)).encode())
    return {"scripts": scripts, "digest": rollup.hexdigest()}


def _digests(summary: dict, prefix: str = "") -> Dict[str, str]:
    """Every digest a quick summary holds, by dotted path
    (``parsers.digest``, ``farm.isolate.journal_digest``, ...)."""
    found = {}
    for key, value in summary.items():
        if isinstance(value, dict):
            found.update(_digests(value, f"{prefix}{key}."))
        elif key.endswith("digest") and value:
            found[prefix + key] = value
    return found


def quick_summary(seed: int = QUICK_SEED,
                  iterations: int = QUICK_ITERATIONS,
                  frames: int = QUICK_FRAMES) -> dict:
    """The quick smoke's loops, summarised as ``FUZZ_quick.json`` pins
    them: parser loop (twice, for the determinism digest), the solo
    loops, farm loop under both isolate and fail-stop, the first
    hundred router scripts."""
    violations: List[str] = []

    parsers = fuzz_parsers(seed, iterations)
    replay = fuzz_parsers(seed, iterations)
    determinism = parsers["digest"] == replay["digest"]
    if not determinism:
        violations.append(
            f"parser corpus digest drifts across identical runs "
            f"({parsers['digest']} != {replay['digest']})")
    solo = {key: fuzz_target(target, seed, QUICK_SOLO_ITERATIONS)
            for key, target in SOLO_TARGETS.items()}
    for escape in parsers["escapes"] + [
            escape for run in solo.values() for escape in run["escapes"]]:
        violations.append(
            f"{escape['protocol']}: {escape['exception']} escaped "
            f"the parser ({escape['message']})")

    farm_runs: Dict[str, dict] = {}
    for policy in ("isolate", "fail-stop"):
        try:
            farm_runs[policy] = fuzz_farm(seed, frames, policy=policy)
        except Exception as exc:  # noqa: BLE001 - containment failure
            violations.append(
                f"farm fuzz under policy={policy} crashed the event "
                f"loop: {type(exc).__name__}: {exc}")
    isolate = farm_runs.get("isolate")
    if isolate is not None and not isolate["barrier"]["parse_errors"]:
        violations.append(
            "farm fuzz recorded zero parse errors — the hostile frame "
            "stream is not reaching the barrier")
    for policy, run in sorted(farm_runs.items()):
        if run["journal_quarantines"] != run["barrier"]["parse_errors"]:
            violations.append(
                f"journal audit mismatch under policy={policy}: "
                f"{run['journal_quarantines']} barrier.quarantine "
                f"events vs {run['barrier']['parse_errors']} parse "
                f"errors — a quarantine went unjournaled")

    try:
        router = fuzz_router(QUICK_ROUTER_SCRIPTS)
    except Exception as exc:  # noqa: BLE001 - a script broke the router
        router = {}
        violations.append(f"router script crashed the bare router: "
                          f"{type(exc).__name__}: {exc}")

    return {
        "experiment": "fuzz-quick",
        "seed": seed,
        "parsers": {
            "iterations": parsers["iterations"],
            "targets": parsers["targets"],
            "ok": parsers["ok"],
            "parse_errors": parsers["parse_errors"],
            "escapes": len(parsers["escapes"]),
            "digest": parsers["digest"],
        },
        "farm": {
            policy: {
                "frames": run["frames"],
                "parse_errors": run["barrier"]["parse_errors"],
                "isolated_flows": run["barrier"]["isolated_flows"],
                "fail_stopped": run["barrier"]["fail_stopped"],
                "quarantined": run["barrier"]["quarantined"],
                "digest": run["digest"],
                "journal_quarantines": run["journal_quarantines"],
                "journal_digest": run["journal_digest"],
            }
            for policy, run in sorted(farm_runs.items())
        },
        "router": router,
        **{name: {key: run[key] for key in
                  ("iterations", "ok", "parse_errors", "digest")}
           for name, run in solo.items()},
        "determinism": {"match": determinism},
        "violations": violations,
    }


def pin_violations(summary: dict, path: str) -> List[str]:
    """Each digest that drifted from, has no pin in or is no longer
    produced for the pin file at ``path``; or that file is missing."""
    name = os.path.basename(path)
    if not os.path.exists(path):
        return [f"{name} is missing"]
    with open(path) as handle:
        tracked = _digests(json.load(handle))
    current = _digests(summary)
    return [f"{key}: {tracked.get(key, 'no pin')} in {name}, "
            f"{current.get(key, 'not produced')} now"
            for key in sorted(tracked.keys() | current.keys())
            if tracked.get(key) != current.get(key)]


def run_quick(seed: int = QUICK_SEED, iterations: int = QUICK_ITERATIONS,
              frames: int = QUICK_FRAMES,
              pinned_path: Optional[str] = None) -> dict:
    """``make fuzz-quick``: :func:`quick_summary` vs the pin file."""
    summary = quick_summary(seed, iterations, frames)
    path = pinned_path or os.path.join(REPO_ROOT, PINNED_NAME)
    drift = pin_violations(summary, path)
    summary["violations"] += drift
    summary["pinned"] = {"path": os.path.basename(path), "match": not drift}
    return summary


__all__ = [
    "QUICK_FRAMES",
    "QUICK_ITERATIONS",
    "QUICK_ROUTER_SCRIPTS",
    "QUICK_SEED",
    "fuzz_farm",
    "fuzz_parsers",
    "fuzz_router",
    "fuzz_target",
    "run_quick",
]
