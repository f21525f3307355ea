"""Storm proxy-bot containment (§7.1 "Unexpected visitors").

"For the C&C-relaying proxy bots in the middle of the Storm hierarchy,
we preserved outside reachability of the bots (the requirement for
their becoming relay agents as opposed to spam-sourcing drones) and
redirected all outgoing activity other than the HTTP-borne C&C
protocol to our standard sink server."

That reflect-the-rest posture is exactly what caught the FTP
connection attempts: iframe-injection jobs pushed through the bots'
SOCKS capability landed at the sink instead of at the victim sites.
"""

from __future__ import annotations

import re
from typing import List

from repro.core.policy import (
    Action,
    Content,
    Rule,
    register_policy,
    short_line,
)
from repro.net.packet import PROTO_TCP
from repro.policies.autoinfect import AutoInfectionPolicy


@register_policy
class StormPolicy(AutoInfectionPolicy):
    """Reachability + HTTP C&C forwarded; everything else sinks."""

    name = "Storm"

    HTTP_CNC_RE = re.compile(rb"^(GET|POST) /storm/")

    default = Action("reflect", "non-C&C outbound to sink", "sink")

    def declare(self) -> List[Rule]:
        return super().declare() + [
            # Outside reachability is the point: let the overlay in.
            Rule(Action("forward", "inbound overlay reachability"),
                 direction="inbound"),
            Rule(Action("forward", "HTTP C&C"), 80, PROTO_TCP,
                 content=Content.regex(self.HTTP_CNC_RE, short_line))]
