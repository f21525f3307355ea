"""Golden router wire digests.

``router_wire.json`` holds one sha256 per scripted router scenario,
recorded from the pre-flow-table slow path (the branch tree every
post-verdict packet took before the table existed) at the commit that
removed it.  The tests run each script through the one remaining path
and compare; ``regen.py`` rewrites the file, deliberately, when a PR
changes wire behaviour on purpose.
"""

from __future__ import annotations

import hashlib
import json
import os

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "router_wire.json")


def wire_digest(state: dict) -> str:
    """sha256 of a ``wire_state()`` dict (bytes hex-encoded)."""
    canonical = json.dumps(state, sort_keys=True, default=bytes.hex)
    return hashlib.sha256(canonical.encode()).hexdigest()


def expected(name: str) -> str:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)[name]
