"""How the SMTP, IRC and FTP servers frame what a peer sends them.

``tests/golden/lines.json`` holds, for every server engine (SMTP under
both strictnesses), one sha256 per feed size over the first
:data:`INPUTS` outputs of its fuzz generator (``gen_smtp``,
``gen_irc``, ``gen_ftp``), each fed whole and in 7-byte chunks.  A
run's hash covers the bytes the engine sent and its end state:
transactions, commands seen, syntax errors, anomalies, nick,
registration, logins, uploads and downloads.

Two kinds of input are left out, as their framing is a choice rather
than an invariant: any input with a line longer than ``MAX_LINE`` as
that engine frames it (CRLF for strict SMTP and FTP, LF for IRC and
lenient SMTP), and for lenient SMTP any input holding both a bare LF
and a CRLF.

Re-record only from a parent commit::

    PYTHONPATH=src python -m tests.golden.regen lines
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import subprocess

import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz.generators import gen_ftp, gen_irc, gen_smtp
from repro.net.ftp import FtpServerEngine
from repro.net.irc import IrcNetwork, IrcServerEngine
from repro.net.lines import MAX_LINE, LineReader
from repro.net.smtp import SmtpServerEngine, Strictness

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "lines.json")

#: Generator outputs per engine, and the seed of their stream.
INPUTS = 2000
SEED = 42
#: Feed sizes: the whole input at once, or 7-byte chunks.
FEEDS = {"whole": None, "7": 7}


def _smtp(strictness):
    return lambda send: SmtpServerEngine(send=send, strictness=strictness)


def _ftp(send):
    return FtpServerEngine(send=send, accounts={"bot": "hunter2"},
                           files={"config": b"mode=spam\r\nrate=9"})


#: Engine name -> (generator, line terminator, what builds the engine).
ENGINES = {
    "smtp-lenient": (gen_smtp, b"\n", _smtp(Strictness.LENIENT)),
    "smtp-strict": (gen_smtp, b"\r\n", _smtp(Strictness.STRICT)),
    "irc": (gen_irc, b"\n",
            lambda send: IrcServerEngine(IrcNetwork(), send)),
    "ftp": (gen_ftp, b"\r\n", _ftp),
}


def kept(name: str, data: bytes) -> bool:
    """Whether ``data`` pins engine ``name``'s framing (see above)."""
    terminator = ENGINES[name][1]
    if any(len(line) > MAX_LINE for line in data.split(terminator)):
        return False
    if name == "smtp-lenient" and b"\r\n" in data:
        return data.count(b"\n") == data.count(b"\r\n")
    return True


def inputs(name: str) -> list:
    """The engine's kept inputs, in generator order."""
    rng = random.Random(SEED)
    generate = ENGINES[name][0]
    return [data for data in (generate(rng) for _ in range(INPUTS))
            if kept(name, data)]


def run(name: str, data: bytes, chunk) -> bytes:
    """What the engine sent for ``data`` and its end state, as bytes."""
    sent = []
    engine = ENGINES[name][2](sent.append)
    step = chunk or max(len(data), 1)
    for offset in range(0, len(data), step):
        engine.feed(data[offset:offset + step])
    state = [
        [(t.mail_from, t.rcpt_to, t.body, t.helo)
         for t in getattr(engine, "transactions", ())],
        getattr(engine, "state", None),
        getattr(engine, "commands_seen", None),
        getattr(engine, "syntax_errors", None),
        getattr(engine, "anomalies", None),
        getattr(engine, "nick", None),
        getattr(engine, "registered", None),
        getattr(engine, "authenticated", None),
        getattr(engine, "login_failures", None),
        getattr(engine, "uploads", None),
        getattr(engine, "downloads", None),
    ]
    return b"".join(sent) + b"\0" + repr(state).encode()


def digests(name: str) -> dict:
    """The engine's pin: one sha256 per feed size."""
    found = {}
    corpus = inputs(name)
    for feed, chunk in FEEDS.items():
        digest = hashlib.sha256()
        for data in corpus:
            result = run(name, data, chunk)
            digest.update(len(result).to_bytes(4, "big"))
            digest.update(result)
        found[feed] = digest.hexdigest()
    return found


def record() -> dict:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    return {"recorded_from": commit,
            "engines": {name: digests(name) for name in ENGINES}}


@functools.lru_cache(maxsize=None)
def corpus() -> dict:
    with open(CORPUS_PATH) as handle:
        return json.load(handle)["engines"]


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_framing_matches_the_pin(name):
    assert digests(name) == corpus()[name]


def test_the_pin_keeps_enough_inputs():
    for name in ENGINES:
        assert len(inputs(name)) > INPUTS // 4, name


# ----------------------------------------------------------------------
# The reader itself
def read(data: bytes, bare_lf: bool, cuts=()):
    """Feed ``data`` split at ``cuts``: the (line, cut) pairs handed
    out, the anomalies reported, and the most the reader held."""
    anomalies = {}
    reader = LineReader(bare_lf, lambda kind, count: anomalies.update(
        {kind: anomalies.get(kind, 0) + count}))
    lines, held = [], 0
    bounds = [0, *sorted(cuts), len(data)]
    for start, end in zip(bounds, bounds[1:]):
        lines += [(line, reader.cut) for line in reader.feed(data[start:end])]
        held = max(held, len(reader))
    return lines, anomalies, held


LONG = b"y" * (MAX_LINE + 3)


@pytest.mark.parametrize("bare_lf, data, lines, anomalies", [
    (False, b"a\nb\r\nc", [(b"a\nb", False)], {"bare_lf": 1}),
    (True, b"a\nb\r\n\r\r\nc", [(b"a", False), (b"b", False),
                                 (b"\r", False)], {"bare_lf": 1}),
    (False, LONG + b"\r\nz\r\n", [(LONG[:MAX_LINE], True), (b"z", False)],
     {"oversized_line": 1}),
    (True, LONG + b"\r\nz\n", [(LONG[:MAX_LINE], True), (b"z", False)],
     {"oversized_line": 1, "bare_lf": 1}),
    (False, LONG, [(LONG[:MAX_LINE], True)], {"oversized_line": 1}),
], ids=["crlf", "bare-lf", "long-crlf", "long-lf", "unterminated"])
def test_framing_rules(bare_lf, data, lines, anomalies):
    assert read(data, bare_lf)[:2] == (lines, anomalies)


pieces = st.sampled_from([b"a", b"\r", b"\n", b"\r\n", b".", LONG])


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.lists(pieces, max_size=12).map(b"".join),
       st.lists(st.integers(min_value=0, max_value=4 * MAX_LINE),
                max_size=6))
def test_chunking_never_changes_the_lines(bare_lf, data, cuts):
    whole = read(data, bare_lf)
    chunked = read(data, bare_lf, [cut for cut in cuts if cut < len(data)])
    assert chunked[:2] == whole[:2]
    assert max(whole[2], chunked[2]) <= MAX_LINE
