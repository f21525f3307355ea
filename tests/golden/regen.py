"""Rewrite ``router_wire.json`` and ``router_scripts.json`` from the
router as it is now.

Run this only when a change alters the router's wire behaviour on
purpose (the post-handoff ACK fix, docs/VERIFICATION.md gap 7, will),
and review the resulting diff — every digest that moves is a scripted
scenario whose bytes, counters or per-flow accounting changed::

    PYTHONPATH=src python -m tests.golden.regen

A refactor does the opposite: it records ``router_scripts.json`` from
its *parent* commit (run this there, or in a clone of it) before
touching the router, and never again.
"""

from __future__ import annotations

import json
import subprocess

from repro.fuzz.router import run_script
from tests import test_fastpath, test_flowtable
from tests.golden import (GOLDEN_PATH, SCRIPTS_PATH, script_digests,
                          wire_digest)


def main() -> None:
    scripts = {**test_fastpath.GOLDEN, **test_flowtable.GOLDEN}
    digests = {name: wire_digest(run()) for name, run in scripts.items()}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    fuzzed = [wire_digest(run_script(seed))
              for seed in range(len(script_digests()))]
    with open(SCRIPTS_PATH, "w") as handle:
        json.dump({"recorded_from": commit, "digests": fuzzed}, handle,
                  indent=0)
        handle.write("\n")
    print(f"wrote {len(fuzzed)} digests to {SCRIPTS_PATH}")


if __name__ == "__main__":
    main()
