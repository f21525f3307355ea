"""Drive-by download sites — the honeycrawler's prey.

§4 requires the farm to host inmates "acting exclusively as servers
(realizing traditional honeyfarms) or clients (realizing
honeycrawlers)", and §6.6 notes GQ "equally supports traditional
honeypot constellations in which dynamic circumstances (such as a web
drive-by) determine the nature of the infection."

A :class:`DrivebySite` serves an innocuous page that pulls in an
exploit script; vulnerable visitors fetch the payload and get
infected.  Benign sites serve plain pages and are the control group.
"""

from __future__ import annotations

from repro.malware.corpus import Sample
from repro.net.host import Host
from repro.net.http import HttpRequest, HttpResponse, serve

EXPLOIT_MARKER = b'<script src="/exploit.js"></script>'


class DrivebySite:
    """A compromised website serving a drive-by download."""

    def __init__(self, host: Host, payload: Sample,
                 port: int = 80) -> None:
        self.host = host
        self.payload = payload
        self.page_hits = 0
        self.exploit_hits = 0
        self.payload_downloads = 0
        serve(host, port, self._respond)

    def _respond(self, request: HttpRequest) -> HttpResponse:
        path = request.path.split("?", 1)[0]
        if path == "/exploit.js":
            self.exploit_hits += 1
            return HttpResponse(
                200, {"Content-Type": "text/javascript"},
                body=b"window.pwn=function(){fetch('/payload.exe')};pwn();",
            )
        if path == "/payload.exe":
            self.payload_downloads += 1
            return HttpResponse(
                200, {"Content-Type": "application/octet-stream"},
                body=self.payload.to_blob(),
            )
        self.page_hits += 1
        return HttpResponse(
            200, {"Content-Type": "text/html"},
            body=(b"<html><body>totally legitimate content"
                  + EXPLOIT_MARKER + b"</body></html>"),
        )


class BenignSite:
    """The control group: an ordinary website."""

    def __init__(self, host: Host, port: int = 80) -> None:
        self.host = host
        self.page_hits = 0
        serve(host, port, self._respond)

    def _respond(self, _request: HttpRequest) -> HttpResponse:
        self.page_hits += 1
        return HttpResponse(
            200, {"Content-Type": "text/html"},
            body=b"<html><body>cat pictures</body></html>",
        )
