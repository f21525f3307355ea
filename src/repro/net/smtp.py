"""SMTP protocol engine (RFC 821/5321 subset) with adjustable rigor.

Spam measurement is GQ's flagship workload, and two of the paper's
§7.1 lessons live entirely in SMTP details:

* *Protocol violations* — real spambots repeat HELO/EHLO mid-session
  and format MAIL FROM / RCPT TO addresses with and without colons or
  angle brackets.  A sink whose state machine follows the RFC too
  closely never reaches DATA for those bots.  :class:`SmtpServerEngine`
  therefore has a ``strictness`` knob.
* *Satisfying fidelity* — bots check the greeting banner; the engine
  takes an arbitrary banner string so sinks can serve grabbed ones.

The engine is transport-agnostic: it consumes input bytes and emits
reply bytes through a callback, so the same code drives the SMTP sink,
victim mail exchangers in the simulated external world, and test
harnesses.
"""

from __future__ import annotations

import enum
import re
from typing import Callable, List, Optional

from repro.net.lines import CRLF, LineReader

# How forgiving the server-side parser is (§7.1 "Protocol violations").
class Strictness(enum.Enum):
    STRICT = "strict"    # by-the-RFC: bad syntax => 5xx, repeated HELO => 503
    LENIENT = "lenient"  # accept real-world spambot dialects


class SmtpState(enum.Enum):
    """Server-side protocol states."""

    GREETING = "greeting"   # banner not yet sent/acknowledged
    COMMAND = "command"     # awaiting a command
    MAIL = "mail"           # MAIL FROM accepted
    RCPT = "rcpt"           # at least one RCPT TO accepted
    DATA = "data"           # consuming message body
    CLOSED = "closed"


class SmtpTransaction:
    """One accepted message: envelope plus body."""

    __slots__ = ("mail_from", "rcpt_to", "body", "helo")

    def __init__(self, mail_from: str, helo: str) -> None:
        self.mail_from = mail_from
        self.rcpt_to: List[str] = []
        self.body = b""
        self.helo = helo


_STRICT_PATH = re.compile(r"^<[^<>\s]+@[^<>\s]+>$")
_LENIENT_ADDR = re.compile(r"([^<>\s:;,]+@[^<>\s:;,]+)")


def parse_address(argument: str, strictness: Strictness) -> Optional[str]:
    """Extract the address from a MAIL FROM / RCPT TO argument.

    Strict mode demands exactly ``<user@host>``; lenient mode accepts
    missing brackets, stray colons, and surrounding junk — the dialects
    the paper saw in the wild.
    """
    argument = argument.strip()
    if strictness is Strictness.STRICT:
        if _STRICT_PATH.match(argument):
            return argument[1:-1]
        return None
    match = _LENIENT_ADDR.search(argument)
    return match.group(1) if match else None


class SmtpServerEngine:
    """Server-side SMTP state machine.

    Parameters
    ----------
    send:
        Callback receiving reply bytes to transmit.
    banner:
        Greeting banner (without the leading ``220``); the SMTP sink's
        banner-grabbing mode substitutes a real server's banner here.
    strictness:
        Dialect tolerance; see :class:`Strictness`.
    on_message:
        Called with each completed :class:`SmtpTransaction`.
    hostname:
        Name used in replies.
    """

    def __init__(
        self,
        send: Callable[[bytes], None],
        banner: str = "mail.example.com ESMTP Postfix",
        strictness: Strictness = Strictness.LENIENT,
        on_message: Optional[Callable[[SmtpTransaction], None]] = None,
        hostname: str = "mail.example.com",
        fault: Optional[dict] = None,
        on_anomaly: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        self._send = send
        self.banner = banner
        self.strictness = strictness
        self.on_message = on_message
        self.hostname = hostname
        # Scripted fault injection for exploratory containment (§7.1):
        # {"stage": "mail"|"rcpt"|"data", "code": 550, "text": "..."}.
        self.fault = fault
        self.on_anomaly = on_anomaly
        # Lenient: sloppy clients end lines at a bare LF.
        self.reader = LineReader(bare_lf=strictness is Strictness.LENIENT,
                                 on_anomaly=self._note_anomaly)

        self.state = SmtpState.COMMAND
        self.helo: str = ""
        self._transaction: Optional[SmtpTransaction] = None
        self._data_lines: List[bytes] = []

        self.transactions: List[SmtpTransaction] = []
        self.commands_seen: List[str] = []
        self.syntax_errors = 0
        self.quit_received = False
        # Protocol anomalies observed (bare_lf, oversized_line):
        # tolerated at lenient fidelity, rejected at strict — but
        # counted either way so telemetry sees the dialect.
        self.anomalies: dict = {"bare_lf": 0, "oversized_line": 0}

        self._reply(220, self.banner)

    # ------------------------------------------------------------------
    def _reply(self, code: int, text: str) -> None:
        # errors="replace": reply text may echo client bytes whose
        # upper-casing left latin-1 (e.g. µ -> Μ); never crash on it.
        self._send(f"{code} {text}".encode("latin-1", "replace") + CRLF)

    def _note_anomaly(self, kind: str, count: int) -> None:
        self.anomalies[kind] = self.anomalies.get(kind, 0) + count
        if self.on_anomaly is not None:
            self.on_anomaly(kind, count)

    def feed(self, data: bytes) -> None:
        """Consume raw bytes from the client."""
        for line in self.reader.feed(data):
            if (self.reader.cut and self.strictness is Strictness.STRICT
                    and self.state != SmtpState.DATA):
                # Lenient engines, and message bodies either way, take
                # an over-long line cut (real spambots do send them).
                self.syntax_errors += 1
                self._reply(500, "line too long")
            elif self.state == SmtpState.DATA:
                self._data_line(line)
            else:
                self._command_line(line)
            if self.state == SmtpState.CLOSED:
                return

    # ------------------------------------------------------------------
    def _command_line(self, line: bytes) -> None:
        verb, _, argument = line.decode("latin-1").partition(" ")
        verb = verb.upper().strip()
        self.commands_seen.append(verb)

        if verb in ("HELO", "EHLO"):
            self._handle_helo(verb, argument)
        elif verb == "MAIL":
            self._handle_mail(argument)
        elif verb == "RCPT":
            self._handle_rcpt(argument)
        elif verb == "DATA":
            self._handle_data()
        elif verb == "RSET":
            self._transaction = None
            if self.state in (SmtpState.MAIL, SmtpState.RCPT):
                self.state = SmtpState.COMMAND
            self._reply(250, "OK")
        elif verb == "NOOP":
            self._reply(250, "OK")
        elif verb == "QUIT":
            self.quit_received = True
            self._reply(221, f"{self.hostname} closing connection")
            self.state = SmtpState.CLOSED
        else:
            self.syntax_errors += 1
            self._reply(500, f"unrecognized command {verb!r}")

    def _handle_helo(self, verb: str, argument: str) -> None:
        argument = argument.strip()
        if self.state != SmtpState.COMMAND and self.strictness is Strictness.STRICT:
            # RFC: HELO mid-transaction is out of sequence.
            self.syntax_errors += 1
            self._reply(503, "bad sequence of commands")
            return
        # Lenient: a repeated HELO implicitly resets, as real MTAs allow.
        self.helo = argument
        self._transaction = None
        self.state = SmtpState.COMMAND
        if verb == "EHLO":
            self._reply(250, f"{self.hostname} Hello {argument}")
        else:
            self._reply(250, f"{self.hostname}")

    def _fault_hits(self, stage: str) -> bool:
        if self.fault and self.fault.get("stage") == stage:
            self._reply(self.fault.get("code", 550),
                        self.fault.get("text", "rejected by policy"))
            return True
        return False

    def _handle_mail(self, argument: str) -> None:
        if self._fault_hits("mail"):
            return
        prefix, _, path = argument.partition(":")
        if prefix.strip().upper() != "FROM":
            if self.strictness is Strictness.STRICT:
                self.syntax_errors += 1
                self._reply(501, "syntax: MAIL FROM:<address>")
                return
            path = re.sub(r"(?i)^\s*FROM", "", argument, count=1)
        if self.state not in (SmtpState.COMMAND,):
            if self.strictness is Strictness.STRICT:
                self.syntax_errors += 1
                self._reply(503, "bad sequence of commands")
                return
        address = parse_address(path, self.strictness)
        if address is None:
            self.syntax_errors += 1
            self._reply(501, "malformed address")
            return
        self._transaction = SmtpTransaction(address, self.helo)
        self.state = SmtpState.MAIL

        self._reply(250, "OK")

    def _handle_rcpt(self, argument: str) -> None:
        if self._fault_hits("rcpt"):
            return
        if self._transaction is None:
            self.syntax_errors += 1
            self._reply(503, "need MAIL before RCPT")
            return
        prefix, _, path = argument.partition(":")
        if prefix.strip().upper() != "TO":
            if self.strictness is Strictness.STRICT:
                self.syntax_errors += 1
                self._reply(501, "syntax: RCPT TO:<address>")
                return
            path = re.sub(r"(?i)^\s*TO", "", argument, count=1)
        address = parse_address(path, self.strictness)
        if address is None:
            self.syntax_errors += 1
            self._reply(501, "malformed address")
            return
        self._transaction.rcpt_to.append(address)
        self.state = SmtpState.RCPT
        self._reply(250, "OK")

    def _handle_data(self) -> None:
        if self._fault_hits("data"):
            return
        if self.state != SmtpState.RCPT or self._transaction is None:
            self.syntax_errors += 1
            self._reply(503, "need RCPT before DATA")
            return
        self._data_lines = []
        self.state = SmtpState.DATA
        self._reply(354, "end data with <CRLF>.<CRLF>")

    def _data_line(self, line: bytes) -> None:
        if line == b".":
            assert self._transaction is not None
            self.state = SmtpState.COMMAND
            if self.fault and self.fault.get("stage") == "body":
                # Bounce the complete message (exploratory containment).
                self._transaction = None
                self._reply(self.fault.get("code", 452),
                            self.fault.get("text", "message bounced"))
                return
            self._transaction.body = CRLF.join(self._data_lines)
            self.transactions.append(self._transaction)
            if self.on_message:
                self.on_message(self._transaction)
            self._transaction = None
            self._reply(250, "OK: queued")
            return
        if line.startswith(b".."):
            line = line[1:]  # dot-unstuffing
        self._data_lines.append(line)


class SmtpClientEngine:
    """Client-side SMTP driver with configurable dialect quirks.

    Spambot models use this to send messages; quirks reproduce the
    §7.1 dialects so the strict/lenient sink experiment is honest.

    Quirk flags:

    * ``repeat_helo`` — send HELO again before every MAIL FROM.
    * ``bare_addresses`` — MAIL FROM/RCPT TO without angle brackets.
    * ``no_colon`` — drop the colon after FROM/TO.
    """

    def __init__(
        self,
        send: Callable[[bytes], None],
        helo: str = "client.example.net",
        messages: Optional[List[dict]] = None,
        repeat_helo: bool = False,
        bare_addresses: bool = False,
        no_colon: bool = False,
        on_done: Optional[Callable[["SmtpClientEngine"], None]] = None,
        on_banner: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self._send = send
        self.helo = helo
        self.queue = list(messages or [])
        self.repeat_helo = repeat_helo
        self.bare_addresses = bare_addresses
        self.no_colon = no_colon
        self.on_done = on_done
        self.on_banner = on_banner

        self.sent = 0
        self.rejected = 0
        self.failure_phases: List[str] = []
        self.aborted = False
        self.banner: Optional[str] = None
        self.replies: List[str] = []

        self.reader = LineReader()
        self._phase = "banner"
        self._current: Optional[dict] = None
        self._rcpt_index = 0

    # ------------------------------------------------------------------
    def _line(self, text: str) -> None:
        self._send(text.encode("latin-1") + CRLF)

    def _format_path(self, keyword: str, address: str) -> str:
        sep = "" if self.no_colon else ":"
        addr = address if self.bare_addresses else f"<{address}>"
        return f"{keyword}{sep}{addr}"

    def feed(self, data: bytes) -> None:
        """Consume server reply bytes and advance the dialogue."""
        for raw in self.reader.feed(data):
            line = raw.decode("latin-1")
            self.replies.append(line)
            self._handle_reply(line)
            if self.aborted:
                return

    def _handle_reply(self, line: str) -> None:
        code = int(line[:3]) if line[:3].isdigit() else 0
        if self._phase == "banner":
            self.banner = line[4:] if len(line) > 4 else ""
            if self.on_banner is not None and not self.on_banner(self.banner):
                # The bot did not like the banner (Waledac/GMail lesson):
                # cease activity entirely.
                self.aborted = True
                return
            self._line(f"HELO {self.helo}")
            self._phase = "helo"
        elif self._phase == "helo":
            if code != 250:
                self.aborted = True
                return
            self._next_message()
        elif self._phase == "rehelo":
            # Bots that re-greet ignore whatever the server said and
            # barrel on into the transaction.
            self._send_mail_from()
        elif self._phase == "mail":
            if code != 250:
                self.rejected += 1
                self.failure_phases.append("mail")
                self._next_message()
                return
            self._rcpt_index = 0
            self._send_rcpt()
        elif self._phase == "rcpt":
            if code != 250:
                self.rejected += 1
                self.failure_phases.append("rcpt")
                self._next_message()
                return
            self._rcpt_index += 1
            if self._rcpt_index < len(self._current["rcpt_to"]):
                self._send_rcpt()
            else:
                self._line("DATA")
                self._phase = "data"
        elif self._phase == "data":
            if code != 354:
                self.rejected += 1
                self.failure_phases.append("data")
                self._next_message()
                return
            body = self._current.get("body", b"spam")
            if isinstance(body, str):
                body = body.encode("latin-1")
            # Dot-stuff the body.
            stuffed = body.replace(b"\r\n.", b"\r\n..")
            self._send(stuffed + CRLF + b"." + CRLF)
            self._phase = "sent"
        elif self._phase == "sent":
            if code == 250:
                self.sent += 1
            else:
                self.rejected += 1
                self.failure_phases.append("body")
            self._next_message()
        elif self._phase == "quit":
            pass  # 221 goodbye

    def _send_rcpt(self) -> None:
        recipient = self._current["rcpt_to"][self._rcpt_index]
        self._line(self._format_path("RCPT TO", recipient))
        self._phase = "rcpt"

    def _next_message(self) -> None:
        if not self.queue:
            self._line("QUIT")
            self._phase = "quit"
            if self.on_done:
                self.on_done(self)
            return
        self._current = self.queue.pop(0)
        if self.repeat_helo and self.sent + self.rejected > 0:
            # Quirk: re-HELO before each transaction (repeated greeting).
            self._line(f"HELO {self.helo}")
            self._phase = "rehelo"
            return
        self._send_mail_from()

    def _send_mail_from(self) -> None:
        assert self._current is not None
        self._line(self._format_path("MAIL FROM", self._current["mail_from"]))
        self._phase = "mail"
