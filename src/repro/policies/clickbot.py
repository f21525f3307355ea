"""Clickbot containment.

The clickbot study [21] needed to understand "the precise HTTP
context of some of the bots' C&C requests" (§7.1 "Exploratory
containment").  The policy forwards the task-list C&C but keeps the
actual click traffic inside the farm — clicking through would commit
live click fraud against advertisers.
"""

from __future__ import annotations

import re
from typing import List

from repro.core.policy import (
    Action,
    Content,
    Rule,
    register_policy,
    shorter_than,
)
from repro.net.packet import PROTO_TCP
from repro.policies.autoinfect import AutoInfectionPolicy


def _is_click(data: bytes) -> bool:
    return data.startswith((b"GET ", b"POST ")) and b"\r\n" in data


@register_policy
class ClickbotPolicy(AutoInfectionPolicy):
    """Task-list C&C forwarded; the clicks themselves contained."""

    name = "Clickbot"

    CNC_RE = re.compile(rb"^GET /click/tasks\?aff=[0-9a-f]+")

    _DENY = Action("drop", "default-deny")
    default = Action("reflect", "non-HTTP to sink", "sink", _DENY)

    def declare(self) -> List[Rule]:
        # Port 80: a C&C fetch or a click?  Decided on content.
        return super().declare() + [
            Rule(Action("forward", "C&C task fetch"), 80, PROTO_TCP,
                 content=Content.regex(self.CNC_RE)),
            Rule(Action("reflect", "click traffic contained", "sink",
                        Action("drop", "click traffic")), 80, PROTO_TCP,
                 content=Content("click", _is_click, shorter_than(16))),
            Rule(Action("reflect", "unrecognized", "sink", self._DENY),
                 80, PROTO_TCP)]
