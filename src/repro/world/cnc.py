"""Botnet command-and-control servers.

Each family speaks a recognizably different C&C dialect — the
property GQ's whole methodology leans on: "in practice the majority
of specimens we encounter still possesses readily distinguishable C&C
protocols" (§8).  Policies whitelist these shapes narrowly; the
fingerprint classifier of §7.1 tells families apart by them.

Dialects (documented here, implemented by the servers and by the
specimen models in :mod:`repro.malware.spambots`):

* Rustock — campaign fetch over "https" (TCP 443, HTTP framing in this
  simulation) ``GET /mod/cmd?id=<bot>``; periodic status beacons over
  plain HTTP ``GET /stat?r=<counter>`` (the flows Figure 7 shows being
  REWRITE-filtered).
* Grum — ``GET /grum/spm?id=<bot>`` on port 80.
* Waledac — ``POST /waledac/ctrl`` with an XML-ish body on port 80.
* MegaD — proprietary binary protocol on TCP 4443: ``MEGAD\\x01``
  magic + bot id, answered by ``MEGAD\\x02`` + payload.
* Clickbot — ``GET /click/tasks?aff=<id>`` on port 80.

Command payloads are JSON spam-campaign instructions: recipient list,
message body, and pacing.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional

from repro.net.host import Host
from repro.net.http import HttpRequest, HttpResponse, serve
from repro.net.tcp import TcpConnection

MEGAD_PORT = 4443
MEGAD_MAGIC_REQ = b"MEGAD\x01"
MEGAD_MAGIC_RSP = b"MEGAD\x02"


class CampaignSource:
    """Generates spam-campaign instructions for C&C responses."""

    def __init__(self, name: str, targets: List[str], body: bytes,
                 batch_size: int = 20, send_interval: float = 2.0) -> None:
        self.name = name
        self.targets = list(targets)
        self.body = body
        self.batch_size = batch_size
        self.send_interval = send_interval
        self._cursor = 0
        self.batches_issued = 0

    def next_batch(self) -> dict:
        if not self.targets:
            batch: List[str] = []
        else:
            batch = [
                self.targets[(self._cursor + i) % len(self.targets)]
                for i in range(self.batch_size)
            ]
            self._cursor = (self._cursor + self.batch_size) % len(self.targets)
        self.batches_issued += 1
        return {
            "campaign": self.name,
            "targets": batch,
            "body": self.body.decode("latin-1"),
            "interval": self.send_interval,
        }


class HttpCncServer:
    """HTTP-framed C&C endpoint serving campaign instructions."""

    def __init__(
        self,
        host: Host,
        campaign: CampaignSource,
        port: int = 80,
        path_prefix: str = "/",
        extra_routes: Optional[Dict[str, Callable[[HttpRequest], HttpResponse]]] = None,
    ) -> None:
        self.host = host
        self.campaign = campaign
        self.port = port
        self.path_prefix = path_prefix
        self.extra_routes = dict(extra_routes or {})
        self.requests_served: List[HttpRequest] = []
        self.unknown_paths = 0
        serve(host, port, self._respond)

    def _respond(self, request: HttpRequest) -> HttpResponse:
        self.requests_served.append(request)
        path = request.path.split("?", 1)[0]
        for prefix, handler in self.extra_routes.items():
            if path.startswith(prefix):
                return handler(request)
        if path.startswith(self.path_prefix):
            payload = json.dumps(self.campaign.next_batch()).encode("ascii")
            return HttpResponse(200, body=payload)
        self.unknown_paths += 1
        return HttpResponse(404)


class MegadCncServer:
    """MegaD's proprietary binary C&C (§7.1 "Exploratory containment":
    GQ confirmed the extracted protocol engine against live servers)."""

    def __init__(self, host: Host, campaign: CampaignSource,
                 port: int = MEGAD_PORT) -> None:
        self.host = host
        self.campaign = campaign
        self.port = port
        self.requests_served = 0
        self.bad_magic = 0
        host.tcp.listen(port, self._accept)

    def _accept(self, conn: TcpConnection) -> None:
        buffer = bytearray()

        def on_data(c: TcpConnection, data: bytes) -> None:
            buffer.extend(data)
            if len(buffer) < len(MEGAD_MAGIC_REQ) + 2:
                return
            if not bytes(buffer).startswith(MEGAD_MAGIC_REQ):
                self.bad_magic += 1
                c.abort()
                return
            self.requests_served += 1
            payload = json.dumps(self.campaign.next_batch()).encode("ascii")
            frame = (MEGAD_MAGIC_RSP
                     + len(payload).to_bytes(4, "big") + payload)
            c.send(frame)
            buffer.clear()

        conn.on_data = on_data
        conn.on_remote_close = lambda c: c.close()


def parse_megad_response(data: bytes) -> Optional[dict]:
    """Client-side MegaD frame parser; None while incomplete."""
    if len(data) < len(MEGAD_MAGIC_RSP) + 4:
        return None
    if not data.startswith(MEGAD_MAGIC_RSP):
        raise ValueError("not a MegaD response frame")
    length = int.from_bytes(data[6:10], "big")
    if len(data) < 10 + length:
        return None
    return json.loads(data[10:10 + length].decode("ascii"))
