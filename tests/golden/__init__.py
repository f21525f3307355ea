"""Golden router digests.

``router_wire.json`` holds one sha256 per scripted router scenario,
recorded from the pre-flow-table slow path (the branch tree every
post-verdict packet took before the table existed) at the commit that
removed it.  ``router_scripts.json`` holds the digests of the seeded
random scripts of :mod:`repro.fuzz.router`, recorded from the commit
before the flow index and the hand-written SHIM-phase relay went
(``recorded_from``).  The tests run each script through the one
remaining path and compare; ``regen.py`` rewrites both files,
deliberately, when a PR changes wire behaviour on purpose.
"""

from __future__ import annotations

import json
import os

from repro.fuzz.router import digest as wire_digest  # noqa: F401

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "router_wire.json")
SCRIPTS_PATH = os.path.join(os.path.dirname(__file__),
                            "router_scripts.json")


def expected(name: str) -> str:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)[name]


def script_digests() -> list:
    """Digest of router script ``seed`` at index ``seed``."""
    with open(SCRIPTS_PATH) as handle:
        return json.load(handle)["digests"]
