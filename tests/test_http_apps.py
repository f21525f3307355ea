"""The shared HTTP application helpers: ``serve``, ``request`` and ``echo``.

Every simulated web site, C&C server and HTTP client in the tree is
built on these three functions in ``repro.net.http``.  The contract
tests run them on two bare hosts with no farm.  The last test runs a
live farm: an inmate's malformed request to a forwarded world server
aborts only that connection instead of stopping the run.
"""

from __future__ import annotations

import pytest

from repro.core.policy import AllowAll
from repro.farm import Farm, FarmConfig
from repro.net.addresses import IPv4Address
from repro.net.http import (
    HttpParser,
    HttpRequest,
    HttpResponse,
    echo,
    request,
    serve,
)
from repro.net.tcp import TcpState
from repro.services.dhcp import DhcpClient
from repro.world.websites import PublisherSite
from tests.helpers import lan

BAD_REQUEST = b"GET / HTTP/1.1\r\nContent-Length: lots\r\n\r\n"


def path_server(host, port=80):
    """``serve`` answering each request with its own path; returns the
    requests it saw."""
    seen = []

    def respond(message):
        seen.append(message.path)
        return HttpResponse(200, body=message.path.encode("ascii"))

    serve(host, port, respond)
    return seen


def raw_client(host, ip, port, payload):
    """A hand-wired client: sends ``payload`` and parses what comes back."""
    conn = host.tcp.connect(ip, port)
    parser = HttpParser("response")
    got = {"responses": [], "resets": 0}
    conn.on_established = lambda c: c.send(payload)
    conn.on_data = lambda c, d: got["responses"].extend(parser.feed(d))

    def on_reset(c):
        got["resets"] += 1

    conn.on_reset = on_reset
    return conn, got


class TestServe:
    def test_pipelined_requests_are_answered_in_order(self):
        sim, _switch, (a, b) = lan()
        seen = path_server(b)
        payload = b"".join(HttpRequest("GET", path).to_bytes()
                           for path in ("/one", "/two", "/three"))
        _conn, got = raw_client(a, b.ip, 80, payload)
        sim.run(until=2.0)
        assert seen == ["/one", "/two", "/three"]
        assert [r.body for r in got["responses"]] == [b"/one", b"/two",
                                                      b"/three"]

    def test_server_side_closes_when_the_peer_closes(self):
        sim, _switch, (a, b) = lan()
        path_server(b)
        conn = request(a, b.ip, 80, HttpRequest("GET", "/x"),
                       lambda c, _response: sim.schedule(1.0, c.close))
        sim.run(until=0.5)
        [server_conn] = b.tcp.connections()
        sim.run(until=2.0)
        assert server_conn.state is TcpState.CLOSED
        # The client saw the server's FIN: both directions are shut.
        assert conn.fully_closed

    def test_malformed_request_aborts_only_that_connection(self):
        sim, _switch, (a, b, c) = lan(num_hosts=3)
        seen = path_server(b)
        bad, bad_got = raw_client(a, b.ip, 80, BAD_REQUEST)
        _good, good_got = raw_client(
            c, b.ip, 80, HttpRequest("GET", "/ok").to_bytes())
        sim.run(until=2.0)
        assert bad_got == {"responses": [], "resets": 1}
        assert bad.state is TcpState.CLOSED
        assert [r.body for r in good_got["responses"]] == [b"/ok"]
        assert seen == ["/ok"]

    def test_an_error_in_respond_propagates(self):
        sim, _switch, (a, b) = lan()

        def respond(_message):
            raise KeyError("server bug")

        serve(b, 80, respond)
        raw_client(a, b.ip, 80, HttpRequest("GET", "/").to_bytes())
        with pytest.raises(KeyError):
            sim.run(until=2.0)


class TestRequest:
    def test_on_response_runs_once_per_response(self):
        sim, _switch, (a, b) = lan()
        seen = path_server(b)
        calls = []
        conn = request(a, b.ip, 80, HttpRequest("GET", "/once"),
                       lambda c, response: calls.append((c, response.body)))
        sim.run(until=2.0)
        assert seen == ["/once"]
        assert calls == [(conn, b"/once")]

    def test_each_response_in_one_segment_gets_its_own_call(self):
        sim, _switch, (a, b) = lan()

        def on_accept(conn):
            conn.on_data = lambda c, _d: c.send(
                HttpResponse(200, body=b"first").to_bytes()
                + HttpResponse(404).to_bytes())

        b.tcp.listen(80, on_accept)
        calls = []
        request(a, b.ip, 80, HttpRequest("GET", "/"),
                lambda _c, response: calls.append(
                    (response.status, response.body)))
        sim.run(until=2.0)
        assert calls == [(200, b"first"), (404, b"")]

    def test_on_fail_runs_on_a_refused_connect(self):
        sim, _switch, (a, b) = lan()
        failed = []
        conn = request(a, b.ip, 999, HttpRequest("GET", "/"),
                       lambda _c, _r: pytest.fail("no response expected"),
                       failed.append)
        sim.run(until=1.0)
        assert failed == [conn]
        assert conn.state is TcpState.CLOSED

    def test_on_fail_runs_on_a_reset_after_establishment(self):
        sim, _switch, (a, b) = lan()

        def on_accept(conn):
            conn.on_data = lambda c, _d: c.abort()

        b.tcp.listen(80, on_accept)
        failed = []
        conn = request(a, b.ip, 80, HttpRequest("GET", "/"),
                       lambda _c, _r: pytest.fail("no response expected"),
                       failed.append)
        sim.run(until=2.0)
        assert conn.established_at is not None
        assert failed == [conn]

    def test_no_on_fail_means_no_callback(self):
        sim, _switch, (a, b) = lan()

        def on_accept(conn):
            conn.on_data = lambda c, _d: c.abort()

        b.tcp.listen(80, on_accept)
        refused = request(a, b.ip, 999, HttpRequest("GET", "/"),
                          lambda _c, _r: None)
        reset = request(a, b.ip, 80, HttpRequest("GET", "/"),
                        lambda _c, _r: None)
        assert refused.on_reset is None
        assert reset.on_reset is None
        sim.run(until=2.0)
        assert refused.state is TcpState.CLOSED
        assert reset.state is TcpState.CLOSED


class TestEcho:
    def test_echoes_and_closes_when_the_peer_closes(self):
        sim, _switch, (a, b) = lan()
        echo(b, 7)
        conn = a.tcp.connect(b.ip, 7)
        got = []
        conn.on_established = lambda c: c.send(b"ping")

        def on_data(c, data):
            got.append(data)
            sim.schedule(1.0, c.close)

        conn.on_data = on_data
        sim.run(until=0.5)
        [server_conn] = b.tcp.connections()
        sim.run(until=2.0)
        assert got == [b"ping"]
        assert server_conn.state is TcpState.CLOSED
        assert conn.fully_closed


@pytest.mark.integration
def test_malformed_request_from_an_inmate_does_not_stop_the_farm():
    """A forwarded world server meets an inmate's malformed request:
    that inmate's connection is reset, the run reaches ``until``, and a
    second, well-formed inmate on the same server is still answered."""
    site_ip = "203.0.113.80"
    farm = Farm(FarmConfig(seed=3))
    sub = farm.create_subfarm("hostile")
    sub.set_default_policy(AllowAll())
    site = PublisherSite(farm.add_external_host("publisher", site_ip))
    seen = {"bad": [], "good": []}

    def image(tag, payload, delay):
        def install(host):
            def configured(h):
                def go():
                    conn = h.tcp.connect(IPv4Address(site_ip), 80)
                    parser = HttpParser("response")
                    conn.on_established = lambda c: c.send(payload)
                    conn.on_data = lambda c, d: seen[tag].extend(
                        r.body for r in parser.feed(d))
                    conn.on_reset = lambda c: seen[tag].append("reset")

                h.sim.schedule(delay, go)

            DhcpClient(host, on_configured=configured).start()

        return install

    sub.create_inmate(image_factory=image("bad", BAD_REQUEST, 1.0))
    sub.create_inmate(image_factory=image(
        "good", HttpRequest("GET", "/", {"Host": "x"}).to_bytes(), 5.0))
    farm.run(until=60)
    assert farm.sim.now == 60
    assert seen["bad"] == ["reset"]
    assert seen["good"] == [site.body]
    assert [hit.path for hit in site.hits] == ["/"]
