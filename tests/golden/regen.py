"""Rewrite the golden files from the tree as it is now.

``router`` rewrites ``router_wire.json`` and ``router_scripts.json``.
Run it only when a change alters the router's wire behaviour on
purpose (the post-handoff ACK fix, docs/VERIFICATION.md gap 7, will),
and review the resulting diff — every digest that moves is a scripted
scenario whose bytes, counters or per-flow accounting changed.
``policy`` rewrites ``policy_decisions.json``, what every library and
experiment policy answers (``tests/test_policy_decisions.py``); ``obs``
rewrites ``obs_parity.json``, the telemetry and journal snapshots of
two observed scan-shaped runs (``tests/test_obs_parity.py``)::

    PYTHONPATH=src python -m tests.golden.regen [router] [policy] [obs]

A refactor does the opposite: it records the file that pins it from
its *parent* commit (run this there, or in a clone of it) before
touching the code, and never again.
"""

from __future__ import annotations

import json
import subprocess
import sys

from repro.fuzz.router import run_script
from tests import (test_fastpath, test_flowtable, test_obs_parity,
                   test_policy_decisions)
from tests.golden import (GOLDEN_PATH, SCRIPTS_PATH, script_digests,
                          wire_digest)


def regen_router() -> None:
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


def regen_policy() -> None:
    print(f"wrote {test_policy_decisions.write_corpus()}")


def regen_obs() -> None:
    print(f"wrote {test_obs_parity.write_corpus()}")


def main(argv) -> None:
    for name in argv or ("router", "policy", "obs"):
        {"router": regen_router, "policy": regen_policy,
         "obs": regen_obs}[name]()


if __name__ == "__main__":
    main(sys.argv[1:])
