"""End-to-end containment: every Figure 2 verdict through a full farm.

These tests assemble the complete system — backbone, gateway, subfarm
router, containment server, inmates booted via DHCP — and verify each
flow-manipulation mode by observable behaviour, including the Figure 5
sequence-space arithmetic (the TCP stacks desynchronize and stall if
the shim injection/stripping is wrong).
"""

from __future__ import annotations

import pytest

from repro.core.policy import (
    Action,
    AllowAll,
    ContainmentPolicy,
    DefaultDeny,
    ReflectAll,
    Rewriter,
)
from repro.farm import Farm, FarmConfig
from repro.net.addresses import IPv4Address
from repro.net.http import HttpParser, HttpRequest, HttpResponse


EXTERNAL_WEB_IP = "203.0.113.80"


def http_server(host, body=b"MALWARE-SAMPLE-BYTES", port=80):
    """A tiny HTTP server returning ``body`` for any GET."""
    served = []

    def on_accept(conn):
        parser = HttpParser("request")

        def on_data(c, data):
            for request in parser.feed(data):
                served.append(request)
                c.send(HttpResponse(200, body=body).to_bytes())

        conn.on_data = on_data
        conn.on_remote_close = lambda c: c.close()

    host.tcp.listen(port, on_accept)
    return served


def http_fetch_image(path="/bot.exe", target=EXTERNAL_WEB_IP, port=80,
                     results=None, delay=1.0):
    """Image factory: boot via DHCP, then HTTP GET and record response."""
    results = results if results is not None else []

    def image(host):
        from repro.services.dhcp import DhcpClient

        def fetch(configured_host):
            def connect():
                conn = configured_host.tcp.connect(IPv4Address(target), port)
                parser = HttpParser("response")
                state = {"failed": False}

                def on_data(c, data):
                    for response in parser.feed(data):
                        results.append(response)

                conn.on_established = lambda c: c.send(
                    HttpRequest("GET", path, {"Host": "cc.example"}).to_bytes()
                )
                conn.on_data = on_data
                # A reset that answers the SYN is a refused connect.
                conn.on_reset = lambda c: results.append(
                    "FAIL" if c.established_at is None else "RESET")

            configured_host.sim.schedule(delay, connect)

        DhcpClient(host, on_configured=fetch).start()

    return image, results


def build_farm(policy, seed=11):
    farm = Farm(FarmConfig(seed=seed))
    sub = farm.create_subfarm("test")
    sub.add_catchall_sink()
    web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
    served = http_server(web)
    image, results = http_fetch_image()
    inmate = sub.create_inmate(image_factory=image, policy=policy)
    return farm, sub, inmate, served, results


class TestDhcpBoot:
    def test_inmate_acquires_internal_address(self):
        farm, sub, inmate, _served, _results = build_farm(DefaultDeny())
        farm.run(until=60)
        assert inmate.host is not None
        assert inmate.host.ip is not None
        assert inmate.host.ip.is_rfc1918()
        assert sub.nat.internal_for(inmate.vlan) == inmate.host.ip
        assert sub.nat.global_for(inmate.vlan) is not None

    def test_two_inmates_get_distinct_addresses(self):
        farm = Farm(FarmConfig(seed=3))
        sub = farm.create_subfarm("test")
        image, _ = http_fetch_image()
        a = sub.create_inmate(image_factory=image, policy=DefaultDeny())
        b = sub.create_inmate(image_factory=image, policy=DefaultDeny())
        farm.run(until=120)
        assert a.host.ip != b.host.ip
        assert a.vlan != b.vlan


class TestForward:
    def test_forward_reaches_real_destination(self):
        farm, sub, inmate, served, results = build_farm(AllowAll())
        farm.run(until=120)
        assert len(served) == 1, "request should reach the real server"
        assert served[0].path == "/bot.exe"
        responses = [r for r in results if not isinstance(r, str)]
        assert len(responses) == 1
        assert responses[0].status == 200
        assert responses[0].body == b"MALWARE-SAMPLE-BYTES"

    def test_forwarded_flow_is_natted(self):
        farm, sub, inmate, served, results = build_farm(AllowAll())
        farm.run(until=120)
        # The external server must never see RFC 1918 space.
        for record in farm.gateway.upstream_trace.records:
            ip = record.ip
            if record.point == "upstream-out" and ip is not None:
                assert not ip.src.is_rfc1918(), f"leaked internal src: {ip}"

    def test_verdict_logged_as_forward(self):
        farm, sub, inmate, _served, _results = build_farm(AllowAll())
        farm.run(until=120)
        assert sub.containment_server.verdict_counts.get("FORWARD", 0) == 1


class TestDrop:
    def test_default_deny_blocks_and_resets(self):
        farm, sub, inmate, served, results = build_farm(DefaultDeny())
        farm.run(until=120)
        assert served == [], "nothing may reach the real server"
        assert "RESET" in results or "FAIL" in results
        assert sub.containment_server.verdict_counts.get("DROP", 0) == 1

    def test_drop_keeps_upstream_silent(self):
        farm, sub, inmate, served, _results = build_farm(DefaultDeny())
        farm.run(until=120)
        outbound = [
            r for r in farm.gateway.upstream_trace.records
            if r.point == "upstream-out" and r.ip is not None
            and str(r.ip.dst) == EXTERNAL_WEB_IP
        ]
        assert outbound == []


class TestReflect:
    def test_reflection_lands_in_sink_with_original_destination(self):
        farm, sub, inmate, served, results = build_farm(ReflectAll())
        farm.run(until=120)
        assert served == [], "reflected traffic must not reach the target"
        sink = sub.sinks["sink"]
        assert sink.connections_accepted == 1
        record = sink.records[0]
        assert record.dst_port == 80
        assert b"GET /bot.exe" in bytes(record.payload)
        # Spoof-preserving reflection: the sink saw the address the
        # specimen actually dialled.
        sink_host = sub.containment_server  # noqa: F841  (doc only)

    def test_reflected_client_believes_connection_established(self):
        farm, sub, inmate, served, results = build_farm(ReflectAll())
        farm.run(until=120)
        # The client got no HTTP response (sink is silent) but also no
        # reset: from its perspective the connection simply idles.
        assert "RESET" not in results and "FAIL" not in results


    def test_reflect_to_a_missing_service_drops_the_flow(self):
        """A reflect to a service the subfarm lacks, naming no
        ``otherwise``, fails closed: the server drops the flow with an
        annotation naming the service, and the run goes on."""
        from repro.core.dsl import DslPolicy

        farm = Farm(FarmConfig(seed=11))
        sub = farm.create_subfarm("test")   # no sink
        web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
        served = http_server(web)
        image, results = http_fetch_image()
        sub.create_inmate(image_factory=image, policy=DslPolicy(
            "port 80/tcp -> reflect sink\ndefault -> drop"))
        farm.run(until=90)
        assert farm.sim.now == 90
        (line,) = [entry for entry in sub.router.flow_log
                   if entry.orig.resp_port == 80]
        assert (line.verdict, line.annotation) == (
            "DROP", "missing service 'sink'")
        assert sub.containment_server.verdict_counts == {"DROP": 1}
        assert served == []
        assert [r for r in farm.gateway.upstream_trace.records
                if r.point == "upstream-out"] == []
        assert "RESET" in results or "FAIL" in results


class TestRedirect:
    def test_redirect_to_alternate_server(self):
        class RedirectToAlt(ContainmentPolicy):
            default = Action("redirect", "redirect to alt",
                             target_ip=IPv4Address("203.0.113.99"),
                             target_port=80)

        farm = Farm(FarmConfig(seed=5))
        sub = farm.create_subfarm("test")
        web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
        served_real = http_server(web, body=b"REAL")
        alt = farm.add_external_host("altserver", "203.0.113.99")
        served_alt = http_server(alt, body=b"ALTERNATE")
        image, results = http_fetch_image()
        sub.create_inmate(image_factory=image, policy=RedirectToAlt())
        farm.run(until=120)
        assert served_real == []
        assert len(served_alt) == 1
        responses = [r for r in results if not isinstance(r, str)]
        assert responses and responses[0].body == b"ALTERNATE"


class TestRewrite:
    def test_an_inmate_that_closes_first_closes_every_leg(self):
        """The proxy passes a close through both ways: when the inmate
        closes first, the server's FIN on the onward leg reaches the
        rewriter, which closes the inmate's leg.  Every connection of
        the flow ends CLOSED or TIME_WAIT, and each stack forgets it."""

        class Passthrough(ContainmentPolicy):
            default = Action("rewrite")

        farm = Farm(FarmConfig(seed=13))
        sub = farm.create_subfarm("test")
        web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
        served = http_server(web)
        legs = []

        def image(host):
            from repro.services.dhcp import DhcpClient

            def fetch(h):
                conn = h.tcp.connect(IPv4Address(EXTERNAL_WEB_IP), 80)
                parser = HttpParser("response")

                def on_data(c, data):
                    if parser.feed(data):
                        # Response in: every leg of the flow is open.
                        legs.extend([c, *cs_host.tcp.connections(),
                                     *web.tcp.connections()])
                        c.close()

                conn.on_established = lambda c: c.send(
                    HttpRequest("GET", "/bot.exe").to_bytes())
                conn.on_data = on_data

            DhcpClient(host, on_configured=fetch).start()

        sub.create_inmate(image_factory=image, policy=Passthrough())
        cs_host = sub.containment_server.host
        farm.run(until=100)
        assert len(served) == 1
        assert len(legs) == 4   # inmate, server's two legs, web server
        assert all(leg.fully_closed for leg in legs), legs
        farm.run(until=120)
        for leg in legs:
            assert leg.state.value == "closed", leg
            assert leg not in leg.host.tcp.connections(), leg

    def test_a_write_after_the_onward_connect_was_refused_is_dropped(self):
        """The destination refuses the onward leg: the rewriter closes
        the inmate's leg, and bytes the inmate sends after that go
        nowhere instead of stopping the run.  The request line, held
        for the refused handshake, never counts as proxied."""

        class Passthrough(ContainmentPolicy):
            default = Action("rewrite")

        farm = Farm(FarmConfig(seed=19))
        sub = farm.create_subfarm("test")
        farm.add_external_host("webserver", EXTERNAL_WEB_IP)  # no listener
        closes = []

        def image(host):
            from repro.services.dhcp import DhcpClient

            def fetch(h):
                conn = h.tcp.connect(IPv4Address(EXTERNAL_WEB_IP), 80)
                conn.on_established = lambda c: c.send(b"GET / HTTP/1.1\r\n")
                conn.on_remote_close = closes.append
                h.sim.schedule(5.0, lambda: conn.send(b"\r\n"))

            DhcpClient(host, on_configured=fetch).start()

        sub.create_inmate(image_factory=image, policy=Passthrough())
        farm.run(until=120)
        assert farm.sim.now == 120
        assert len(closes) == 1
        assert sub.containment_server.bytes_to_server == 0

    def test_a_write_and_close_before_the_onward_handshake_keep_order(self):
        """A rewriter may write to and close the onward leg before its
        handshake completes: the connection holds both, and the server
        reads every byte in order, then the FIN."""

        class OneShot(Rewriter):
            def on_open(self, proxy):
                proxy.connect_out()
                proxy.send_to_server(b"one ")
                proxy.send_to_server(b"two")
                proxy.close_server()

            def on_client_data(self, proxy, data):
                pass

        class OneShotPolicy(ContainmentPolicy):
            default = Action("rewrite", "one-shot")

            def make_rewriter(self, ctx):
                return OneShot()

        farm = Farm(FarmConfig(seed=17))
        sub = farm.create_subfarm("test")
        web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
        heard = []

        def on_accept(conn):
            conn.on_data = lambda c, d: heard.append(bytes(d))
            conn.on_remote_close = lambda c: (heard.append("FIN"),
                                              c.close())

        web.tcp.listen(80, on_accept)
        image, _results = http_fetch_image()
        sub.create_inmate(image_factory=image, policy=OneShotPolicy())
        farm.run(until=120)
        assert heard and heard[-1] == "FIN"
        assert b"".join(heard[:-1]) == b"one two"
        assert sub.containment_server.bytes_to_server == len(b"one two")

    def test_rewrite_impersonation_without_real_target(self):
        """The containment server can impersonate a destination that
        need not exist (the auto-infection pattern of §6.6)."""

        class Impersonate(ContainmentPolicy):
            default = Action("rewrite", "impersonating")

            def make_rewriter(self, ctx):
                class FakeServer(Rewriter):
                    def on_open(self, proxy):
                        pass  # never connect out

                    def on_client_data(self, proxy, data):
                        if b"\r\n\r\n" in data:
                            proxy.send_to_client(
                                HttpResponse(200, body=b"FROM-CS").to_bytes()
                            )

                return FakeServer()

        farm = Farm(FarmConfig(seed=7))
        sub = farm.create_subfarm("test")
        # Note: no external host for this IP exists at all.
        image, results = http_fetch_image(target="198.51.100.77")
        sub.create_inmate(image_factory=image, policy=Impersonate())
        farm.run(until=120)
        responses = [r for r in results if not isinstance(r, str)]
        assert len(responses) == 1
        assert responses[0].body == b"FROM-CS"

    def test_rewrite_proxy_modifies_request_and_response(self):
        """Figure 5 faithfully: GET bot.exe becomes GET cleanup.exe on
        the wire, and the 200 comes back as 404."""

        class Fig5Rewriter(Rewriter):
            def on_client_data(self, proxy, data):
                proxy.send_to_server(
                    data.replace(b"GET /bot.exe", b"GET /cleanup.exe")
                )

            def on_server_data(self, proxy, data):
                if data.startswith(b"HTTP/1.1 200"):
                    proxy.send_to_client(HttpResponse(404).to_bytes())
                else:
                    proxy.send_to_client(data)

        class Fig5Policy(ContainmentPolicy):
            default = Action("rewrite", "fig5")

            def make_rewriter(self, ctx):
                return Fig5Rewriter()

        farm = Farm(FarmConfig(seed=9))
        sub = farm.create_subfarm("test")
        web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
        served = http_server(web, body=b"CLEANUP-BYTES")
        image, results = http_fetch_image()
        sub.create_inmate(image_factory=image, policy=Fig5Policy())
        farm.run(until=120)
        assert len(served) == 1
        assert served[0].path == "/cleanup.exe", "request rewritten in flight"
        responses = [r for r in results if not isinstance(r, str)]
        assert responses and responses[0].status == 404

    def test_rewrite_target_sees_inmate_global_address(self):
        """The nonce-leg NAT must show the inmate's global address to
        the real target, not the containment server's."""

        class Passthrough(ContainmentPolicy):
            default = Action("rewrite")

        farm = Farm(FarmConfig(seed=13))
        sub = farm.create_subfarm("test")
        web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
        seen_sources = []

        def on_accept(conn):
            seen_sources.append(conn.remote_ip)
            conn.on_data = lambda c, d: c.send(
                HttpResponse(200, body=b"ok").to_bytes())

        web.tcp.listen(80, on_accept)
        image, results = http_fetch_image()
        inmate = sub.create_inmate(image_factory=image, policy=Passthrough())
        farm.run(until=120)
        assert len(seen_sources) == 1
        assert seen_sources[0] == sub.nat.global_for(inmate.vlan)
        assert seen_sources[0] != sub.cs_ip


class TestLimit:
    def test_limit_still_delivers_but_slower(self):
        class Limited(ContainmentPolicy):
            default = Action("limit", "trickle", rate=500.0)  # 500 B/s

        farm = Farm(FarmConfig(seed=15))
        sub = farm.create_subfarm("test")
        web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
        body = b"X" * 4000
        served = http_server(web, body=body)
        image, results = http_fetch_image()
        sub.create_inmate(image_factory=image, policy=Limited())
        farm.run(until=300)
        responses = [r for r in results if not isinstance(r, str)]
        assert len(served) == 1
        assert responses and responses[0].body == body
        # 4000 bytes at 500 B/s must take several seconds beyond the
        # unshaped baseline (which completes in well under a second).
        assert farm.sim.now >= 0  # sanity; detailed timing below

    def test_limit_timing_scales_with_rate(self):
        def run_with(policy_cls, seed):
            farm = Farm(FarmConfig(seed=seed))
            sub = farm.create_subfarm("test")
            web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
            http_server(web, body=b"Y" * 6000)
            image, results = http_fetch_image()
            sub.create_inmate(image_factory=image, policy=policy_cls())
            done = []

            def check():
                responses = [r for r in results if not isinstance(r, str)]
                if responses and not done:
                    done.append(farm.sim.now)

            from repro.sim.process import Process
            Process(farm.sim, 0.5, check, label="probe").start()
            farm.run(until=600)
            return done[0] if done else None

        class Fast(ContainmentPolicy):
            default = Action("limit", rate=100000.0)

        class Slow(ContainmentPolicy):
            default = Action("limit", rate=800.0)

        fast_done = run_with(Fast, seed=21)
        slow_done = run_with(Slow, seed=21)
        assert fast_done is not None and slow_done is not None
        assert slow_done > fast_done + 3.0


class TestShimAccounting:
    def test_shim_counters_match_flows(self):
        farm, sub, inmate, _served, _results = build_farm(AllowAll())
        farm.run(until=120)
        router = sub.router
        assert router.counters["shims_injected"] == 1
        assert router.counters["shims_stripped"] == 1
        assert router.counters["handoffs"] == 1
        assert router.counters["flows_created"] == 1
