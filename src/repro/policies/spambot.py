"""Spambot containment policies.

The hierarchy the paper sketches: from the auto-infection base "we
derive ... a base class for spambots that reflects all outbound SMTP
traffic", and from it family leaves that open exactly the C&C
lifeline — the §3 methodology's end state.  The Figure 7 report shows
the resulting mix for Grum (FORWARD http C&C, REFLECT all SMTP,
REWRITE autoinfection) and Rustock (FORWARD https C&C, REFLECT SMTP,
REWRITE http C&C filtering, REWRITE autoinfection).
"""

from __future__ import annotations

import re
from typing import List

from repro.core.policy import (
    Action,
    Content,
    PolicyContext,
    Rewriter,
    Rule,
    register_policy,
    short_line,
    shorter_than,
)
from repro.net.packet import PROTO_TCP
from repro.policies.autoinfect import AutoInfectionPolicy
from repro.world.cnc import MEGAD_MAGIC_REQ, MEGAD_PORT

SMTP_PORT = 25

#: Whitelisted C&C: what every family leaf forwards.
CNC = Action("forward", "C&C")


@register_policy
class SpambotPolicy(AutoInfectionPolicy):
    """Base class for spambots: reflect all outbound SMTP to the sink.

    Port 25 is never allowed out — period.  The C&C lifeline is left
    to family subclasses, which append their rules; anything not
    understood is denied or, when a catch-all sink is configured,
    reflected for inspection.
    """

    default = Action("reflect", "unrecognized traffic to sink", "sink",
                     Action("drop", "unrecognized traffic"))

    def declare(self) -> List[Rule]:
        smtp = "full SMTP containment"
        return super().declare() + [Rule(
            Action("reflect", smtp, "smtp_sink",
                   Action("reflect", smtp, "sink")),
            SMTP_PORT, PROTO_TCP)]


@register_policy
class Grum(SpambotPolicy):
    """Grum containment: forward only Grum-shaped HTTP C&C.

    Named bare "Grum" because Figure 6 keys the config file's
    ``Decider`` entries on these names.
    """

    name = "Grum"
    CNC_PATH = re.compile(rb"^GET /grum/spm\?id=[0-9a-f]+ HTTP/1\.[01]")

    def declare(self) -> List[Rule]:
        return super().declare() + [Rule(
            CNC, 80, PROTO_TCP,
            content=Content.regex(self.CNC_PATH, short_line))]


GrumPolicy = Grum


class _RustockStatFilter(Rewriter):
    """REWRITE filter for Rustock's plain-HTTP status beacons
    (Figure 7's "C&C filtering" rows): strips the bot's delivery
    statistics out of the beacon before letting it through, so the
    botmaster never learns the farm's true (sunk) spam volume."""

    STAT_RE = re.compile(rb"(sent=)(\d+)")

    def on_client_data(self, proxy, data: bytes) -> None:
        proxy.send_to_server(self.STAT_RE.sub(rb"\g<1>0", data))


@register_policy
class Rustock(SpambotPolicy):
    """Rustock: forward https C&C, REWRITE-filter http beacons."""

    name = "Rustock"
    CNC_TLS_PORT = 443
    BEACON_RE = re.compile(rb"^GET /stat\?r=\d+")

    def declare(self) -> List[Rule]:
        return super().declare() + [
            Rule(CNC, self.CNC_TLS_PORT, PROTO_TCP),
            Rule(Action("rewrite", "C&C filtering"), 80, PROTO_TCP,
                 content=Content.regex(self.BEACON_RE, short_line))]

    def make_other_rewriter(self, ctx: PolicyContext) -> Rewriter:
        return _RustockStatFilter()


RustockPolicy = Rustock


@register_policy
class Waledac(SpambotPolicy):
    """Waledac: forward the POST C&C; reflect SMTP to the banner-
    grabbing sink (after the blacklisting lesson, no real SMTP at
    all — not even "innocuous" test messages)."""

    name = "Waledac"
    CNC_RE = re.compile(rb"^POST /waledac/ctrl HTTP/1\.[01]")

    def declare(self) -> List[Rule]:
        return super().declare() + [Rule(
            CNC, 80, PROTO_TCP,
            content=Content.regex(self.CNC_RE, short_line))]


WaledacPolicy = Waledac


@register_policy
class MegaDContainment(SpambotPolicy):
    """MegaD: forward only the proprietary binary C&C handshake."""

    name = "MegaD"

    def declare(self) -> List[Rule]:
        # Verify the whole magic before forwarding.
        return super().declare() + [Rule(
            CNC, MEGAD_PORT, PROTO_TCP, content=Content.prefix(
                MEGAD_MAGIC_REQ, shorter_than(len(MEGAD_MAGIC_REQ))))]


MegadPolicy = MegaDContainment
