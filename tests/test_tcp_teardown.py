"""Teardown of a connection the gateway handed off to its destination,
and of the containment server's leg of every flow."""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.core.dsl import DslPolicy
from repro.core.policy import AllowAll
from repro.farm import Farm, FarmConfig
from repro.net.addresses import IPv4Address
from repro.net.http import HttpParser, HttpRequest
from repro.net.tcp import TcpState
from repro.services.dhcp import DhcpClient
from tests import test_obs_parity
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


def test_completed_flows_leave_the_collector_nothing_at_the_server():
    """The server's per-flow ``_CsConnection`` holds its
    ``TcpConnection``, whose callbacks are that object's bound methods:
    a cycle (with the request shim, the policy context and the methods
    themselves) unless the connection lets go of its callbacks when it
    closes.  With the collector off, every finished flow must have
    been freed by reference count alone."""
    per_flow = {"_CsConnection", "RequestShim", "PolicyContext"}
    gc.collect()
    gc.disable()
    try:
        farm = Farm(FarmConfig(seed=5))
        http_server(farm.add_external_host("webserver",
                                           test_obs_parity.WEB_IP),
                    body=b"pong")
        sub = farm.create_subfarm("scan")
        sub.add_catchall_sink()
        sub.set_default_policy(DslPolicy(test_obs_parity.SCAN_PROGRAM))
        for _ in range(3):
            sub.create_inmate(
                image_factory=test_obs_parity._scan_image(0.5, 0.0))
        farm.run(until=test_obs_parity.DURATION + 30.0)
        verdicts = sub.containment_server.verdict_counts
        assert {"DROP", "REFLECT", "FORWARD"} <= set(verdicts)
        assert sum(verdicts.values()) > 150
        left = Counter(type(obj).__name__ for obj in gc.get_objects()
                       if type(obj).__name__ in per_flow)
        assert not left
    finally:
        gc.enable()
