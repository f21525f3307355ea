"""The names the layer ledger's tracer wraps are still there.

``benchmarks/ledger/tracer.install`` replaces every entry point it
lists through the owner's own ``__dict__`` (docs/PERFORMANCE.md,
"Frozen names"), so deleting one breaks every traced ledger run.  This
holds the whole list in the Tier-1 suite, retired placeholders
included, rather than only where the ledger's own tests run.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                "benchmarks", "ledger"))
import tracer  # noqa: E402


def test_every_traced_entry_point_is_in_its_owners_namespace():
    missing = [f"{getattr(owner, '__name__', owner)}.{name}"
               for _layer, owner, name in tracer.entry_points()
               if name not in owner.__dict__]
    assert missing == []
