"""Minimal HTTP/1.1 message handling.

HTTP carries most modern C&C: the auto-infection server (§6.6) is an
HTTP server realized as a REWRITE containment, the Figure 5 walkthrough
rewrites an HTTP GET in flight, and clickbot/spambot C&C rides on GET
and POST.  This module gives all of those a shared, incremental parser
that works over TCP byte streams (partial delivery is the norm), and
the one server loop (:func:`serve`) and one client exchange
(:func:`request`) that every simulated application builds on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.net.errors import ParseError
from repro.net.lines import CRLF

if TYPE_CHECKING:
    from repro.net.addresses import IPv4Address
    from repro.net.host import Host
    from repro.net.tcp import TcpConnection

HEADER_END = b"\r\n\r\n"

#: A header block that exceeds this without terminating is rejected —
#: bounding the parser's buffer against a hostile peer that streams
#: header bytes forever.
MAX_HEADER_BYTES = 65536


class HttpMessage:
    """Common machinery for requests and responses."""

    def __init__(self, headers: Optional[Dict[str, str]] = None,
                 body: bytes = b"") -> None:
        self.headers: Dict[str, str] = dict(headers or {})
        self.body = body

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        for key, value in self.headers.items():
            if key.lower() == name.lower():
                return value
        return default

    #: Responses always carry Content-Length so receivers can frame
    #: them without waiting for connection close.
    always_content_length = False

    def _encode_headers(self, start_line: str) -> bytes:
        lines = [start_line.encode("ascii")]
        headers = dict(self.headers)
        if (self.body or self.always_content_length) and not any(
            k.lower() == "content-length" for k in headers
        ):
            headers["Content-Length"] = str(len(self.body))
        for name, value in headers.items():
            lines.append(f"{name}: {value}".encode("latin-1"))
        return CRLF.join(lines) + HEADER_END


class HttpRequest(HttpMessage):
    """An HTTP request."""

    def __init__(
        self,
        method: str,
        path: str,
        headers: Optional[Dict[str, str]] = None,
        body: bytes = b"",
        version: str = "HTTP/1.1",
    ) -> None:
        super().__init__(headers, body)
        self.method = method.upper()
        self.path = path
        self.version = version

    def to_bytes(self) -> bytes:
        return self._encode_headers(
            f"{self.method} {self.path} {self.version}"
        ) + self.body

    def __repr__(self) -> str:
        return f"<HttpRequest {self.method} {self.path}>"


class HttpResponse(HttpMessage):
    """An HTTP response."""

    always_content_length = True

    REASONS = {
        200: "OK", 204: "No Content", 301: "Moved Permanently",
        302: "Found", 403: "Forbidden", 404: "NOT FOUND",
        500: "Internal Server Error", 503: "Service Unavailable",
    }

    def __init__(
        self,
        status: int,
        headers: Optional[Dict[str, str]] = None,
        body: bytes = b"",
        reason: Optional[str] = None,
        version: str = "HTTP/1.1",
    ) -> None:
        super().__init__(headers, body)
        self.status = status
        self.reason = reason or self.REASONS.get(status, "Unknown")
        self.version = version

    def to_bytes(self) -> bytes:
        return self._encode_headers(
            f"{self.version} {self.status} {self.reason}"
        ) + self.body

    def __repr__(self) -> str:
        return f"<HttpResponse {self.status} {self.reason}>"


def _parse_headers(block: bytes) -> Tuple[List[str], Dict[str, str]]:
    lines = block.split(CRLF)
    start = lines[0].decode("latin-1")
    headers: Dict[str, str] = {}
    for raw in lines[1:]:
        if not raw:
            continue
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip()] = value.strip()
    return start.split(" ", 2), headers


class HttpParser:
    """Incremental parser over a TCP byte stream.

    Feed bytes with :meth:`feed`; completed messages come back as a
    list.  ``role`` selects request or response framing.  Responses
    without Content-Length are framed by connection close (call
    :meth:`finish` when the peer closes).
    """

    def __init__(self, role: str = "request") -> None:
        if role not in ("request", "response"):
            raise ValueError("role must be 'request' or 'response'")
        self.role = role
        self._buffer = bytearray()
        self._headers_done = False
        self._current: Optional[HttpMessage] = None
        self._body_remaining = 0
        self._until_close = False

    def feed(self, data: bytes) -> List[HttpMessage]:
        self._buffer.extend(data)
        messages: List[HttpMessage] = []
        while True:
            message = self._try_parse_one()
            if message is None:
                break
            messages.append(message)
        return messages

    def finish(self) -> Optional[HttpMessage]:
        """Peer closed the connection: flush a close-framed body."""
        if self._until_close and self._current is not None:
            self._current.body = bytes(self._buffer)
            self._buffer.clear()
            message, self._current = self._current, None
            self._until_close = False
            self._headers_done = False
            return message
        return None

    def _try_parse_one(self) -> Optional[HttpMessage]:
        if not self._headers_done:
            end = self._buffer.find(HEADER_END)
            if end < 0:
                if len(self._buffer) > MAX_HEADER_BYTES:
                    raise ParseError(
                        "http", f"header block exceeds {MAX_HEADER_BYTES} "
                        "bytes without terminating",
                        offset=MAX_HEADER_BYTES)
                return None
            block = bytes(self._buffer[:end])
            del self._buffer[:end + len(HEADER_END)]
            parts, headers = _parse_headers(block)
            if self.role == "request":
                method, path = parts[0], parts[1] if len(parts) > 1 else "/"
                version = parts[2] if len(parts) > 2 else "HTTP/1.0"
                self._current = HttpRequest(method, path, headers, version=version)
            else:
                version = parts[0]
                if len(parts) > 1:
                    try:
                        status = int(parts[1])
                    except ValueError:
                        raise ParseError(
                            "http", f"non-numeric status {parts[1]!r}",
                            offset=len(version) + 1) from None
                else:
                    status = 200
                reason = parts[2] if len(parts) > 2 else ""
                self._current = HttpResponse(status, headers, reason=reason,
                                             version=version)
            length = self._current.header("Content-Length")
            if length is not None:
                try:
                    self._body_remaining = int(length)
                except ValueError:
                    raise ParseError(
                        "http", f"malformed Content-Length {length!r}",
                        offset=end) from None
                if self._body_remaining < 0:
                    raise ParseError(
                        "http", f"negative Content-Length {length!r}",
                        offset=end)
                self._until_close = False
            elif self.role == "response" and status not in (204, 304):
                # No length on a response: framed by close.
                self._body_remaining = 0
                self._until_close = True
                self._headers_done = True
                return None
            else:
                self._body_remaining = 0
                self._until_close = False
            self._headers_done = True

        if self._until_close:
            return None
        if len(self._buffer) < self._body_remaining:
            return None
        assert self._current is not None
        self._current.body = bytes(self._buffer[:self._body_remaining])
        del self._buffer[:self._body_remaining]
        message, self._current = self._current, None
        self._headers_done = False
        self._body_remaining = 0
        return message


def serve(host: "Host", port: int,
          respond: Callable[[HttpRequest], HttpResponse]) -> None:
    """Listen on ``port`` and answer each request with ``respond(request)``.

    Every connection gets its own request parser and closes when the
    peer closes.  Application servers sit outside the malice barrier,
    yet an inmate's bytes reach them: a request the parser refuses
    aborts that one connection (RST) instead of unwinding the event
    loop.  Only the parser is guarded; an error in ``respond`` is the
    server's own bug and propagates.
    """

    def on_accept(conn: "TcpConnection") -> None:
        parser = HttpParser("request")

        def on_data(c: "TcpConnection", data: bytes) -> None:
            try:
                requests = parser.feed(data)
            except ParseError:
                c.abort()
                return
            for message in requests:
                c.send(respond(message).to_bytes())

        conn.on_data = on_data
        conn.on_remote_close = _close

    host.tcp.listen(port, on_accept)


def request(
    host: "Host",
    ip: "IPv4Address",
    port: int,
    message: HttpRequest,
    on_response: Callable[["TcpConnection", HttpResponse], None],
    on_fail: Optional[Callable[["TcpConnection"], None]] = None,
) -> "TcpConnection":
    """Connect to ``ip:port`` and send ``message`` once established.

    ``on_response(conn, response)`` runs for each parsed response; the
    caller decides whether and when to close.  ``on_fail(conn)`` runs
    on a refused connect and on a reset alike.  Returns the connection.
    """
    conn = host.tcp.connect(ip, port)
    parser = HttpParser("response")

    def on_data(c: "TcpConnection", data: bytes) -> None:
        for response in parser.feed(data):
            on_response(c, response)

    conn.on_established = lambda c: c.send(message.to_bytes())
    conn.on_data = on_data
    if on_fail is not None:
        conn.on_fail = conn.on_reset = on_fail
    return conn


def echo(host: "Host", port: int) -> None:
    """Listen on ``port`` and send every byte back (a plain TCP echo,
    not HTTP); close when the peer closes."""

    def on_accept(conn: "TcpConnection") -> None:
        conn.on_data = _echo_data
        conn.on_remote_close = _close

    host.tcp.listen(port, on_accept)


def _echo_data(conn: "TcpConnection", data: bytes) -> None:
    conn.send(data)


def _close(conn: "TcpConnection") -> None:
    conn.close()
