"""Teardown of a connection the gateway handed off to its destination."""

from __future__ import annotations

import pytest

from repro.core.policy import AllowAll
from repro.farm import Farm, FarmConfig
from repro.net.addresses import IPv4Address
from repro.net.http import HttpParser, HttpRequest
from repro.net.tcp import TcpState
from repro.services.dhcp import DhcpClient
from tests.test_containment_end_to_end import EXTERNAL_WEB_IP, http_server

pytestmark = pytest.mark.integration


def _fetch_then_close(conns, closed):
    """Inmate image: one GET, then an orderly close on the response."""

    def image(host):
        def fetch(configured):
            def connect():
                conn = configured.tcp.connect(IPv4Address(EXTERNAL_WEB_IP), 80)
                parser = HttpParser("response")
                conn.on_established = lambda c: c.send(
                    HttpRequest("GET", "/ping", {"Host": "x"}).to_bytes())

                def on_data(c, data):
                    if parser.feed(data):
                        c.close()

                conn.on_data = on_data
                conn.on_closed = closed.append
                conns.append(conn)

            configured.sim.schedule(1.0, connect)

        DhcpClient(host, on_configured=fetch).start()

    return image


@pytest.mark.xfail(strict=True, reason=(
    "After a FORWARD handoff the gateway still subtracts c2s_inj (the "
    "24-byte request shim the destination never saw) from every "
    "destination->inmate ACK (the compiled tcp-d2c entry's ack_delta, "
    "handoff.compile_endpoint), so the ACK of the inmate's FIN is "
    "24 too low: "
    "the inmate sits in CLOSING forever, on_closed never fires and its "
    "TcpStack keeps one connection per flow.  The fix changes inmate-side "
    "wire bytes and adds TIME_WAIT events, so it lands with a deliberate "
    "digest re-pin (docs/VERIFICATION.md, abstraction gaps)."))
def test_forwarded_fetch_reaches_time_wait():
    farm = Farm(FarmConfig(seed=7))
    sub = farm.create_subfarm("teardown")
    sub.add_catchall_sink()
    http_server(farm.add_external_host("webserver", EXTERNAL_WEB_IP),
                body=b"pong")
    conns, closed = [], []
    sub.create_inmate(image_factory=_fetch_then_close(conns, closed),
                      policy=AllowAll())
    farm.run(until=60)

    (conn,) = conns
    assert conn.bytes_received, "the forwarded fetch never completed"
    assert conn.state in (TcpState.TIME_WAIT, TcpState.CLOSED), conn.state
    assert closed == [conn]
    assert conn.host.tcp.connection_count() == 0
