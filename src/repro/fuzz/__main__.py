"""CLI for the fuzz plane.

Usage::

    python -m repro.fuzz --quick                    # make fuzz-quick
    python -m repro.fuzz --seed 7 --iterations 10000 --frames 2000
    python -m repro.fuzz --seed 7 --corpus tests/fuzz_corpus
    python -m repro.fuzz --replay tests/fuzz_corpus

``--quick`` runs the fixed-seed smoke (parser determinism replay,
policy-program, worker-frame, fault-plan, farm-config, certificate
and shard-spec loops, farm loop under isolate and fail-stop, the
first hundred router differential scripts, comparison against the
tracked ``FUZZ_quick.json``) and exits non-zero on any violation.  Without it, the parser loop and every solo loop run
``--iterations`` inputs each, pinning minimized escapes into
``--corpus``, and the farm loop runs once.
``--replay`` re-parses a pinned corpus directory and exits non-zero if
any input escapes the ParseError taxonomy.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.fuzz.corpus import replay_corpus
from repro.fuzz.generators import SOLO_TARGETS
from repro.fuzz.runner import (
    QUICK_FRAMES,
    QUICK_ITERATIONS,
    QUICK_SEED,
    fuzz_farm,
    fuzz_parsers,
    fuzz_target,
    run_quick,
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="deterministic hostile-input fuzzing of farm "
                    "parsers and the gateway malice barrier")
    parser.add_argument("--quick", action="store_true",
                        help="fixed-seed smoke vs FUZZ_quick.json "
                             "(make fuzz-quick)")
    parser.add_argument("--seed", type=int, default=QUICK_SEED)
    parser.add_argument("--iterations", type=int,
                        default=QUICK_ITERATIONS,
                        help="parser-loop inputs (round-robin targets)")
    parser.add_argument("--frames", type=int, default=QUICK_FRAMES,
                        help="hostile wire frames for the farm loop")
    parser.add_argument("--corpus", metavar="DIR",
                        help="pin minimized escapes into this corpus "
                             "directory")
    parser.add_argument("--replay", metavar="DIR",
                        help="replay a pinned corpus directory instead "
                             "of fuzzing")
    parser.add_argument("--indent", type=int, default=2)
    args = parser.parse_args(argv)

    if args.replay:
        summary = replay_corpus(args.replay)
        print(json.dumps(summary, indent=args.indent, sort_keys=True))
        if summary["escapes"]:
            print(f"FUZZ REPLAY ESCAPES: {len(summary['escapes'])}",
                  file=sys.stderr)
            return 1
        return 0

    if args.quick:
        summary = run_quick(seed=args.seed, iterations=args.iterations,
                            frames=args.frames)
        print(json.dumps(summary, indent=args.indent, sort_keys=True))
        if summary["violations"]:
            print(f"FUZZ VIOLATIONS: {len(summary['violations'])}",
                  file=sys.stderr)
            return 1
        return 0

    parsers = fuzz_parsers(args.seed, args.iterations,
                           corpus_dir=args.corpus)
    solo = {key: fuzz_target(target, args.seed, args.iterations,
                             corpus_dir=args.corpus)
            for key, target in SOLO_TARGETS.items()}
    try:
        farm = fuzz_farm(args.seed, args.frames)
    except Exception as exc:  # noqa: BLE001 - containment failure
        farm = {"survived": False,
                "error": f"{type(exc).__name__}: {exc}"}
    summary = {"parsers": parsers, **solo, "farm": farm}
    print(json.dumps(summary, indent=args.indent, sort_keys=True))
    escapes = parsers["escapes"] + [
        escape for run in solo.values() for escape in run["escapes"]]
    if escapes or not farm.get("survived"):
        print(f"FUZZ ESCAPES: {len(escapes)} parser, "
              f"farm survived={farm.get('survived')}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
