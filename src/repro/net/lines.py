"""The one framer of SMTP, IRC and FTP lines, whose bytes come from a
peer that may be live malware (§5, §7.1; docs/HARDENING.md)."""

from __future__ import annotations

from typing import Callable, Iterator, Optional

CRLF = b"\r\n"
#: The longest line handed out, and the most of one ever held.
MAX_LINE = 8192


class LineReader:
    """Frames one peer's bytes into lines ending at CRLF or, with
    ``bare_lf``, at LF (one CR before it dropped).

    A line longer than ``MAX_LINE``, or an unterminated run past it, is
    handed out cut with :attr:`cut` set, and its rest is dropped up to
    its line end, so how the peer splits its bytes never changes the
    lines.  ``on_anomaly(kind, count)`` hears of each ``bare_lf`` and
    ``oversized_line``.
    """

    def __init__(self, bare_lf: bool = False,
                 on_anomaly: Optional[Callable[[str, int], None]] = None
                 ) -> None:
        self.cut = False  # whether the line last handed out was cut
        self._end = b"\n" if bare_lf else CRLF
        self._on_anomaly = on_anomaly or (lambda kind, count: None)
        self._buffer = bytearray()
        self._skipping = False  # dropping the rest of a cut line

    def __len__(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> Iterator[bytes]:
        """Buffer ``data`` and iterate over the complete lines; what a
        caller stops short of stays buffered for its next call."""
        bare = data.count(b"\n") - data.count(CRLF)
        if data[:1] == b"\n" and self._buffer.endswith(b"\r"):
            bare -= 1  # a CR that ended the last feed is still buffered
        if bare:
            self._on_anomaly("bare_lf", bare)
        self._buffer += data
        return self._lines()

    def _lines(self) -> Iterator[bytes]:
        buffer, mark = self._buffer, self._end
        while True:
            end = buffer.find(mark)
            if self._skipping:
                if end < 0:  # keep a trailing CR: it may begin the CRLF
                    del buffer[:-1 if buffer.endswith(b"\r") else None]
                    return
                del buffer[:end + len(mark)]
                self._skipping = False
                continue
            if end >= 0:
                line = bytes(buffer[:end])
                del buffer[:end + len(mark)]
                if mark == b"\n" and line.endswith(b"\r"):
                    line = line[:-1]
            elif len(buffer) > MAX_LINE:
                line, self._skipping = bytes(buffer[:MAX_LINE + 1]), True
            else:
                return
            self.cut = len(line) > MAX_LINE
            if self.cut:
                line = line[:MAX_LINE]
                self._on_anomaly("oversized_line", 1)
            yield line
