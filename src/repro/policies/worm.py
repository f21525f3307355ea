"""The worm honeyfarm policy (the predecessor system's job, §2, §7.1).

Inbound infection attempts are forwarded to the inmates (the
traditional honeyfarm model: external traffic directly infects
honeypot machines).  Outbound propagation attempts are redirected to
*fresh* inmates inside the farm — the conservative containment trick
Potemkin leaned on: "one can observe worm propagation even when
employing a very conservative containment policy of redirecting
outbound connections to additional analysis machines in the
honeyfarm."

The redirect is sticky per (source VLAN, scanned address): multi-
connection exploits (Table 1's # CONNS column) must land on the same
victim for the propagation to complete.  The victim is farm state, so
the redirect is built per flow and published as an in-farm cell.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.policy import (
    UNBOUND,
    Action,
    ContainmentPolicy,
    PolicyContext,
    Rule,
    register_policy,
)
from repro.core.verdicts import ContainmentDecision
from repro.net.addresses import IPv4Address


@register_policy
class WormHoneyfarmPolicy(ContainmentPolicy):
    """Inbound infections in; outbound propagation redirected to
    fresh inmates, else reflected to the sink, else dropped."""

    name = "WormHoneyfarm"

    default = Action(
        "redirect", "propagation into farm", target_ip=UNBOUND,
        build="propagate",
        otherwise=Action("reflect", "no fresh inmate; to sink", "sink",
                         Action("drop", "no fresh inmate available")))

    def __init__(self, services=None, config=None) -> None:
        super().__init__(services, config)
        # (source vlan, scanned destination) -> victim internal address
        self._redirects: Dict[Tuple[int, IPv4Address], IPv4Address] = {}
        self.redirects_issued = 0
        self.no_victim_available = 0

    def declare(self) -> List[Rule]:
        return super().declare() + [Rule(
            Action("forward", "inbound infection attempt"),
            direction="inbound")]

    def propagate(self, ctx: PolicyContext) -> Optional[ContainmentDecision]:
        """The redirect to this scan's victim; None (the walker takes
        ``otherwise``) while no fresh inmate is left."""
        victim = self._victim_for(ctx)
        if victim is None:
            self.no_victim_available += 1
            return None
        self.redirects_issued += 1
        return self.redirect(ctx, victim,
                             annotation="propagation into farm")

    # ------------------------------------------------------------------
    def _victim_for(self, ctx: PolicyContext) -> Optional[IPv4Address]:
        key = (ctx.vlan_id, ctx.flow.resp_ip)
        if key in self._redirects:
            return self._redirects[key]
        victim = self._pick_fresh_inmate(ctx)
        if victim is not None:
            self._redirects[key] = victim
        return victim

    def _pick_fresh_inmate(self, ctx: PolicyContext) -> Optional[IPv4Address]:
        """Choose a running, not-yet-infected inmate other than the
        source.  Requires the subfarm handle in the context."""
        subfarm = ctx.subfarm
        if subfarm is None:
            return None
        candidates = []
        for vlan, inmate in sorted(subfarm.inmates.items()):
            if vlan == ctx.vlan_id:
                continue
            host = inmate.host
            if host is None or host.ip is None:
                continue
            vuln = getattr(host, "vuln", None)
            if vuln is not None and vuln.infected:
                continue
            # Skip inmates already promised to some other scan.
            if host.ip in self._redirects.values():
                continue
            candidates.append(host.ip)
        return candidates[0] if candidates else None
