"""Publisher websites and clickbot C&C.

The clickbot study's world: publisher pages whose ad links the bots
"click".  Clicks landing on *real* publishers are the harm a clickbot
containment policy must prevent (committed click fraud); the counting
here is what the containment-tradeoff benchmark reads.
"""

from __future__ import annotations

import json
from typing import List

from repro.net.host import Host
from repro.net.http import HttpRequest, HttpResponse, serve


class PublisherSite:
    """A website that counts hits (ad clicks) per path."""

    def __init__(self, host: Host, port: int = 80,
                 body: bytes = b"<html>ads here</html>") -> None:
        self.host = host
        self.port = port
        self.body = body
        self.hits: List[HttpRequest] = []
        serve(host, port, self._respond)

    def _respond(self, request: HttpRequest) -> HttpResponse:
        self.hits.append(request)
        return HttpResponse(200, body=self.body)

    @property
    def click_count(self) -> int:
        return len(self.hits)


class ClickCncServer:
    """Serves clickbot task lists: GET /click/tasks?aff=<id>."""

    def __init__(self, host: Host, tasks: List[dict],
                 interval: float = 5.0, port: int = 80) -> None:
        self.host = host
        self.tasks = list(tasks)
        self.interval = interval
        self.port = port
        self.requests_served = 0
        serve(host, port, self._respond)

    def _respond(self, request: HttpRequest) -> HttpResponse:
        if not request.path.startswith("/click/tasks"):
            return HttpResponse(404)
        self.requests_served += 1
        payload = json.dumps(
            {"urls": self.tasks, "interval": self.interval}
        ).encode("ascii")
        return HttpResponse(200, body=payload)
