"""Honeycrawler containment.

The crawl itself is the experiment's intent — HTTP fetches toward the
candidate sites must go out — but whatever the drive-by payload does
afterwards (C&C, spam) is exactly the activity that must stay inside.
Shape-gated: plain GETs with a browser User-Agent are the crawl;
everything else reflects.
"""

from __future__ import annotations

import re
from typing import List

from repro.core.policy import (
    Action,
    ContainmentPolicy,
    Content,
    Rule,
    register_policy,
)
from repro.net.packet import PROTO_TCP

SMTP_PORT = 25


def _headers_incomplete(data: bytes) -> bool:
    return b"\r\n\r\n" not in data and len(data) < 512


@register_policy
class HoneycrawlerPolicy(ContainmentPolicy):
    """Crawl fetches go out; post-infection traffic stays in."""

    name = "Honeycrawler"

    CRAWL_RE = re.compile(
        rb"^GET /[^\s]* HTTP/1\.[01]\r\n(?:.*\r\n)*?"
        rb"User-Agent: [^\r\n]*vulnerable",
        re.DOTALL,
    )

    default = Action("reflect", "non-crawl to sink", "sink")

    def declare(self) -> List[Rule]:
        smtp = "SMTP containment"
        return super().declare() + [
            Rule(Action("drop", "unsolicited inbound"), direction="inbound"),
            Rule(Action("reflect", smtp, "smtp_sink",
                        Action("reflect", smtp, "sink")), SMTP_PORT),
            # Port 80: crawl or post-infection traffic?  Check content.
            Rule(Action("forward", "crawl fetch"), 80, PROTO_TCP,
                 content=Content.regex(self.CRAWL_RE, _headers_incomplete)),
            Rule(Action("reflect", "post-infection to sink", "sink"),
                 80, PROTO_TCP)]
