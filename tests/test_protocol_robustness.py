"""Robustness fuzzing: protocol engines fed adversarial bytes.

Everything facing inmate traffic parses attacker-controlled input;
none of it may crash, hang, or mis-frame.  Hypothesis drives random
byte streams (whole and chunked) through every engine.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.shim import ShimError, peek_length
from repro.net.dns import DnsMessage
from repro.net.errors import ParseError
from repro.net.ftp import FtpClientEngine, FtpServerEngine
from repro.net.http import HttpParser
from repro.net.irc import IrcClientEngine, IrcNetwork, IrcServerEngine
from repro.net.lines import MAX_LINE
from repro.net.smtp import SmtpClientEngine, SmtpServerEngine, Strictness
from repro.net.socks import Socks4Reply, Socks4Request
from repro.services.smtp_sink import SMTP_PORT, SmtpSink
from tests.helpers import lan

junk = st.binary(max_size=300)
junk_chunks = st.lists(st.binary(max_size=60), max_size=10)


class TestEnginesSurviveGarbage:
    @settings(max_examples=60)
    @given(junk_chunks)
    def test_smtp_server(self, chunks):
        out = []
        engine = SmtpServerEngine(send=out.append,
                                  strictness=Strictness.LENIENT)
        for chunk in chunks:
            engine.feed(chunk)
        assert out, "greeting banner must always have been sent"

    @settings(max_examples=60)
    @given(junk_chunks)
    def test_smtp_server_strict(self, chunks):
        out = []
        engine = SmtpServerEngine(send=out.append,
                                  strictness=Strictness.STRICT)
        for chunk in chunks:
            engine.feed(chunk)

    @settings(max_examples=60)
    @given(junk_chunks)
    def test_http_request_parser(self, chunks):
        parser = HttpParser("request")
        for chunk in chunks:
            try:
                parser.feed(chunk)
            except ParseError:
                return  # malformed framing rejected loudly is fine
            # Any other exception (bare ValueError included) escapes
            # the taxonomy and fails the test.

    @settings(max_examples=60)
    @given(junk_chunks)
    def test_ftp_server(self, chunks):
        out = []
        engine = FtpServerEngine(send=out.append, accounts={"u": "p"},
                                 files={"f": b"x"})
        for chunk in chunks:
            engine.feed(chunk)
        assert out

    @settings(max_examples=60)
    @given(junk_chunks)
    def test_irc_server(self, chunks):
        network = IrcNetwork()
        out = []
        engine = IrcServerEngine(network, out.append)
        for chunk in chunks:
            engine.feed(chunk)

    @settings(max_examples=60)
    @given(junk)
    def test_dns_parser(self, data):
        try:
            DnsMessage.from_bytes(data)
        except ValueError:
            pass

    @settings(max_examples=60)
    @given(junk)
    def test_socks_parsers(self, data):
        try:
            Socks4Request.parse(data)
        except ValueError:
            pass
        Socks4Reply.parse(data)

    @settings(max_examples=60)
    @given(junk)
    def test_shim_peek(self, data):
        try:
            peek_length(data)
        except ShimError:
            pass


class TestFramingUnderFragmentation:
    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=7))
    def test_smtp_command_split_arbitrarily(self, chunk_size):
        out = []
        engine = SmtpServerEngine(send=out.append,
                                  on_message=lambda t: out.append(b"MSG"))
        wire = (b"HELO x\r\nMAIL FROM:<a@b.c>\r\nRCPT TO:<d@e.f>\r\n"
                b"DATA\r\nhello\r\n.\r\n")
        for offset in range(0, len(wire), chunk_size):
            engine.feed(wire[offset:offset + chunk_size])
        assert b"MSG" in out
        assert len(engine.transactions) == 1

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=7))
    def test_irc_registration_split_arbitrarily(self, chunk_size):
        network = IrcNetwork()
        out = []
        engine = IrcServerEngine(network, out.append)
        wire = b"NICK bot1\r\nUSER bot1 0 * :b\r\nJOIN #cmd\r\n"
        for offset in range(0, len(wire), chunk_size):
            engine.feed(wire[offset:offset + chunk_size])
        assert engine.registered
        assert "bot1" in network.channel("#cmd").members


#: Engine -> (what builds it, a well-formed command for a server and
#: the reply it must still get after a flood; None for a client).
LINE_ENGINES = {
    "smtp-server": (lambda send: SmtpServerEngine(send=send),
                    (b"HELO x\r\n", b"250 ")),
    "smtp-client": (lambda send: SmtpClientEngine(send=send), None),
    "irc-server": (lambda send: IrcServerEngine(IrcNetwork(), send),
                   (b"PING :token\r\n", b" PONG ")),
    "irc-client": (lambda send: IrcClientEngine(send, "bot", "#cmd",
                                                lambda _c: None), None),
    "ftp-server": (lambda send: FtpServerEngine(send=send),
                   (b"USER bot\r\n", b"331 ")),
    "ftp-client": (lambda send: FtpClientEngine(send, "bot", "pw", "f",
                                                lambda data: data), None),
}


@pytest.mark.parametrize("chunk", [None, 1024], ids=["whole", "1KiB"])
@pytest.mark.parametrize("name", sorted(LINE_ENGINES))
def test_unterminated_flood_is_bounded(name, chunk):
    """A MiB with no line end leaves at most ``MAX_LINE`` bytes held;
    once the peer ends that line, a server answers the next command."""
    build, probe = LINE_ENGINES[name]
    sent = []
    engine = build(sent.append)
    flood = b"A" * (1 << 20)
    step = chunk or len(flood)
    for offset in range(0, len(flood), step):
        engine.feed(flood[offset:offset + step])
        assert len(engine.reader) <= MAX_LINE
    if probe is not None:
        command, reply = probe
        engine.feed(b"\r\n" + command)
        assert reply in sent[-1]


def test_unterminated_mx_greeting_leaves_the_default_banner():
    """A real MX that never ends its greeting: the sink serves its
    default banner instead of buffering the flood."""
    sim, _switch, (bot, sink_host, mx) = lan(num_hosts=3)
    sink = SmtpSink(sink_host, banner_grabbing=True,
                    banner_target_resolver=lambda _ip: mx.ip,
                    listen_any_port=False)
    mx.tcp.listen(SMTP_PORT, lambda conn: conn.send(b"2" * (64 << 10)))
    conn = bot.tcp.connect(sink_host.ip, SMTP_PORT)
    client = SmtpClientEngine(send=conn.send)
    conn.on_data = lambda _c, data: client.feed(data)
    sim.run(until=30.0)
    assert client.banner == sink.default_banner
    assert sink.banner_cache[sink_host.ip] == sink.default_banner
