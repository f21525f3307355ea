"""GQ's primary contribution: explicit per-flow containment.

* :mod:`repro.core.verdicts` — the six flow-manipulation modes.
* :mod:`repro.core.shim` — the gateway/containment-server shim protocol.
* :mod:`repro.core.policy` — the containment policy class hierarchy.
* :mod:`repro.core.server` — the containment server.
* :mod:`repro.core.triggers` — activity triggers driving inmate life-cycle.
* :mod:`repro.core.config` — the configuration file format of Figure 6.
* Server clusters (§7.2): ``Subfarm.add_containment_servers``.
"""

from repro.core.verdicts import Verdict, ContainmentDecision
from repro.core.shim import RequestShim, ResponseShim, SHIM_MAGIC

__all__ = [
    "Verdict",
    "ContainmentDecision",
    "RequestShim",
    "ResponseShim",
    "SHIM_MAGIC",
]
