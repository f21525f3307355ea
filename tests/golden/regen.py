"""Rewrite ``router_wire.json`` from the router as it is now.

Run this only when a change alters the router's wire behaviour on
purpose (the post-handoff ACK fix, docs/VERIFICATION.md gap 7, will),
and review the resulting diff — every digest that moves is a scripted
scenario whose bytes, counters or per-flow accounting changed::

    PYTHONPATH=src python -m tests.golden.regen
"""

from __future__ import annotations

import json

from tests import test_fastpath, test_flowtable
from tests.golden import GOLDEN_PATH, wire_digest


def main() -> None:
    scripts = {**test_fastpath.GOLDEN, **test_flowtable.GOLDEN}
    digests = {name: wire_digest(run()) for name, run in scripts.items()}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
