"""FTP control-channel primitives.

Exists for one reason: the paper's §7.1 "Unexpected visitors" episode.
An upstream botmaster pushed SOCKS-framed jobs through Storm proxy
bots, instructing them to log into FTP servers with known credentials,
download an HTML page, and re-upload it with a malicious iframe
injected.  GQ's reflect-everything-but-C&C policy caught the FTP
connection attempts at the sink.

The model here is a small command/reply engine rich enough for that
scenario: USER/PASS login, RETR, STOR, QUIT over a single connection
(in-band data transfer — a simplification that keeps the containment
story identical without a second data channel).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.net.lines import CRLF, LineReader


class FtpServerEngine:
    """A minimal FTP server with an in-memory filesystem."""

    def __init__(
        self,
        send: Callable[[bytes], None],
        accounts: Optional[Dict[str, str]] = None,
        files: Optional[Dict[str, bytes]] = None,
        banner: str = "FTP server ready",
    ) -> None:
        self._send = send
        self.accounts = dict(accounts or {})
        # Kept by reference: all sessions of one site share the same
        # filesystem, so uploads are visible site-wide.
        self.files: Dict[str, bytes] = files if files is not None else {}
        self.reader = LineReader()
        self._user: Optional[str] = None
        self.authenticated = False
        # The file a STOR is writing and its lines so far; None when idle.
        self._storing: Optional[Tuple[str, List[bytes]]] = None
        self.uploads: List[Tuple[str, bytes]] = []
        self.downloads: List[str] = []
        self.login_failures = 0
        self._reply(220, banner)

    def _reply(self, code: int, text: str) -> None:
        # Replies can echo client-supplied bytes (unknown verbs); e.g.
        # b"\xb5".decode("latin-1").upper() leaves latin-1's range, so
        # the echo must never crash the server.
        self._send(f"{code} {text}".encode("latin-1", "replace") + CRLF)

    def feed(self, data: bytes) -> None:
        for line in self.reader.feed(data):
            if self._storing is None:
                self._command(line.decode("latin-1"))
            elif line != b".":
                self._storing[1].append(line)
            else:
                name, lines = self._storing
                content = CRLF.join(lines)
                self.files[name] = content
                self.uploads.append((name, content))
                self._storing = None
                self._reply(226, "transfer complete")

    def _command(self, line: str) -> None:
        verb, _, argument = line.partition(" ")
        verb = verb.upper()
        if verb == "USER":
            self._user = argument.strip()
            self._reply(331, "password required")
        elif verb == "PASS":
            if self._user is not None and self.accounts.get(self._user) == argument.strip():
                self.authenticated = True
                self._reply(230, "login successful")
            else:
                self.login_failures += 1
                self._reply(530, "login incorrect")
        elif verb == "RETR":
            if not self.authenticated:
                self._reply(530, "not logged in")
            elif argument.strip() in self.files:
                name = argument.strip()
                self.downloads.append(name)
                self._reply(150, "opening data connection")
                self._send(self.files[name] + b"\r\n.\r\n")
                self._reply(226, "transfer complete")
            else:
                self._reply(550, "file not found")
        elif verb == "STOR":
            if not self.authenticated:
                self._reply(530, "not logged in")
            else:
                self._storing = (argument.strip(), [])
                self._reply(150, "ok to send data")
        elif verb == "QUIT":
            self._reply(221, "goodbye")
        else:
            self._reply(502, f"command {verb!r} not implemented")


class FtpClientEngine:
    """Scripted FTP client: login, fetch a file, transform, re-upload.

    The exact behaviour of the Storm iframe-injection job: the
    ``transform`` callable receives the downloaded bytes and returns
    the bytes to upload (e.g. with an iframe inserted).
    """

    def __init__(
        self,
        send: Callable[[bytes], None],
        username: str,
        password: str,
        filename: str,
        transform: Callable[[bytes], bytes],
        on_done: Optional[Callable[["FtpClientEngine"], None]] = None,
    ) -> None:
        self._send = send
        self.username = username
        self.password = password
        self.filename = filename
        self.transform = transform
        self.on_done = on_done

        self.reader = LineReader()
        self._phase = "banner"
        # The lines of a RETR in progress; None when not downloading.
        self._downloading: Optional[List[bytes]] = None
        self.downloaded: Optional[bytes] = None
        self.uploaded = False
        self.failed = False

    def _line(self, text: str) -> None:
        self._send(text.encode("latin-1") + CRLF)

    def feed(self, data: bytes) -> None:
        for line in self.reader.feed(data):
            if self._downloading is None:
                self._reply(line.decode("latin-1"))
                if self.failed:
                    return
            elif line != b".":
                self._downloading.append(line)
            else:
                self.downloaded = CRLF.join(self._downloading)
                self._downloading = None

    def _reply(self, line: str) -> None:
        code = int(line[:3]) if line[:3].isdigit() else 0
        if self._phase == "banner":
            self._line(f"USER {self.username}")
            self._phase = "user"
        elif self._phase == "user":
            if code != 331:
                self._fail()
                return
            self._line(f"PASS {self.password}")
            self._phase = "pass"
        elif self._phase == "pass":
            if code != 230:
                self._fail()
                return
            self._line(f"RETR {self.filename}")
            self._phase = "retr"
        elif self._phase == "retr":
            if code == 150:
                self._downloading = []  # data follows in-band
                return
            if code != 226 or self.downloaded is None:
                self._fail()
                return
            self._line(f"STOR {self.filename}")
            self._phase = "stor"
        elif self._phase == "stor":
            if code == 150:
                payload = self.transform(self.downloaded or b"")
                self._send(payload + b"\r\n.\r\n")
                return
            if code == 226:
                self.uploaded = True
                self._line("QUIT")
                self._phase = "quit"
                if self.on_done:
                    self.on_done(self)
            else:
                self._fail()
        elif self._phase == "quit":
            pass

    def _fail(self) -> None:
        self.failed = True
        if self.on_done:
            self.on_done(self)
