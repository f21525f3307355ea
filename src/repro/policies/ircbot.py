"""Containment policies for the §4 versatility families."""

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
from repro.policies.spambot import SpambotPolicy

IRC_PORT = 6667


@register_policy
class IrcBotPolicy(SpambotPolicy):
    """IRC-herded spambot: forward only the registration-shaped IRC
    connection; SMTP reflects as always."""

    name = "IrcBot"
    IRC_HELLO = re.compile(rb"^NICK gq[0-9a-f]+\r\n")

    def declare(self) -> List[Rule]:
        return super().declare() + [Rule(
            Action("forward", "IRC C&C"), IRC_PORT, PROTO_TCP,
            content=Content.regex(self.IRC_HELLO, short_line))]


@register_policy
class DgaBotPolicy(SpambotPolicy):
    """DGA bot: the NXDOMAIN walk happens against the farm resolver
    (uncontained infra service); only the post-hit HTTP C&C needs a
    whitelist."""

    name = "DgaBot"
    CNC_RE = re.compile(rb"^GET /dga/cmd\?id=[0-9a-f]+ HTTP/1\.[01]")

    def declare(self) -> List[Rule]:
        return super().declare() + [Rule(
            Action("forward", "C&C (DGA-located)"), 80, PROTO_TCP,
            content=Content.regex(self.CNC_RE, short_line))]
