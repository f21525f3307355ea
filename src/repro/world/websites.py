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
from repro.net.http import HttpParser, HttpRequest, HttpResponse
from repro.net.tcp import TcpConnection


class PublisherSite:
    """A website that counts hits (ad clicks) per path."""

    def __init__(self, host: Host, port: int = 80,
                 body: bytes = b"<html>ads here</html>") -> None:
        self.host = host
        self.port = port
        self.body = body
        self.hits: List[HttpRequest] = []
        host.tcp.listen(port, self._accept)

    def _accept(self, conn: TcpConnection) -> None:
        parser = HttpParser("request")

        def on_data(c: TcpConnection, data: bytes) -> None:
            for request in parser.feed(data):
                self.hits.append(request)
                c.send(HttpResponse(200, body=self.body).to_bytes())

        conn.on_data = on_data
        conn.on_remote_close = lambda c: c.close()

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
        host.tcp.listen(port, self._accept)

    def _accept(self, conn: TcpConnection) -> None:
        parser = HttpParser("request")

        def on_data(c: TcpConnection, data: bytes) -> None:
            for request in parser.feed(data):
                if request.path.startswith("/click/tasks"):
                    self.requests_served += 1
                    payload = json.dumps(
                        {"urls": self.tasks, "interval": self.interval}
                    ).encode("ascii")
                    c.send(HttpResponse(200, body=payload).to_bytes())
                else:
                    c.send(HttpResponse(404).to_bytes())

        conn.on_data = on_data
        conn.on_remote_close = lambda c: c.close()
