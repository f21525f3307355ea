"""The baseline policies themselves."""

from __future__ import annotations

from typing import List, Set

from repro.core.policy import Action, Rule, register_policy
from repro.policies.autoinfect import AutoInfectionPolicy

#: Ports Botlab's description singles out: privileged ports are
#: blanket-dropped; these are the "ports associated with known
#: vulnerabilities" above 1024.
KNOWN_VULNERABLE_PORTS: Set[int] = {1433, 2967, 5554, 9996, 4444}


@register_policy
class UnconstrainedPolicy(AutoInfectionPolicy):
    """Everything out, unchanged.  Maximum behaviour, maximum harm."""

    name = "Unconstrained"
    default = Action("forward", "unconstrained")


@register_policy
class FullIsolationPolicy(AutoInfectionPolicy):
    """No external connectivity whatsoever (beyond auto-infection,
    which is farm-internal).  Safe and nearly useless: C&C-dependent
    malware never comes alive."""

    name = "FullIsolation"
    default = Action("drop", "full isolation")


@register_policy
class BotlabStaticPolicy(AutoInfectionPolicy):
    """Botlab's static containment (§2): "traffic destined to
    privileged ports, or ports associated with known vulnerabilities,
    is automatically dropped, and limits are enforced on connection
    rates, data transmission, and the total window of time in which we
    allow a binary to execute."

    Static rules cut both ways: port-80 C&C dies with the privileged-
    port blanket, while malicious traffic on unprivileged ports leaks
    out (merely rate-limited).
    """

    name = "BotlabStatic"

    def __init__(self, services=None, config=None,
                 rate_limit: float = 10000.0) -> None:
        super().__init__(services, config)
        self.default = Action("limit", "static rule: rate-limited",
                              rate=rate_limit)

    def declare(self) -> List[Rule]:
        dropped = Action("drop", "static rule: privileged/vuln port")
        return super().declare() + [Rule(dropped, (0, 1023))] + [
            Rule(dropped, port) for port in sorted(KNOWN_VULNERABLE_PORTS)]
