"""Failure injection: the containment machinery under broken parts.

The fail-safe property matters more than the happy path: whenever a
component misbehaves — the containment server crashes mid-decision, a
shim is malformed, a policy raises — the flow must die contained, never
leak.
"""

from __future__ import annotations

import pytest

from repro.core.policy import (
    Action,
    AllowAll,
    Content,
    ContainmentPolicy,
    Rule,
)
from repro.farm import Farm, FarmConfig
from tests.helpers import Admitted
from tests.test_containment_end_to_end import (
    EXTERNAL_WEB_IP,
    http_fetch_image,
    http_server,
)

pytestmark = pytest.mark.integration


class DyingPolicy(ContainmentPolicy):
    """Never decides a TCP flow: its one rule never matches the
    content and always holds out for more."""

    def declare(self):
        return [Rule(Action("drop", "never decided"), content=Content(
            "never", lambda data: False, holds=lambda data: True))]


class TestContainmentServerFailures:
    def test_cs_closing_before_verdict_drops_the_flow(self):
        """A containment server that dies (FIN) before answering must
        fail closed: the paper's machinery treats it as DROP."""
        farm = Farm(FarmConfig(seed=91))
        sub = farm.create_subfarm("test")
        web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
        served = http_server(web)
        image, results = http_fetch_image()
        inmate = sub.create_inmate(image_factory=image,
                                   policy=DyingPolicy())
        farm.run(until=45)
        # Now kill every open containment connection server-side.
        for conn in list(sub.cs_host.tcp.connections()):
            if conn.local_port == sub.containment_server.tcp_port:
                conn.close()
        farm.run(until=120)
        assert served == [], "an undecided flow must never reach out"
        router_verdicts = [entry.verdict for entry in sub.router.flow_log]
        assert "DROP" in router_verdicts

    def test_cs_reset_before_verdict_kills_client_flow(self):
        farm = Farm(FarmConfig(seed=92))
        sub = farm.create_subfarm("test")
        web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
        served = http_server(web)
        image, results = http_fetch_image()
        sub.create_inmate(image_factory=image, policy=DyingPolicy())
        farm.run(until=45)
        for conn in list(sub.cs_host.tcp.connections()):
            if conn.local_port == sub.containment_server.tcp_port:
                conn.abort()
        farm.run(until=120)
        assert served == []
        assert "RESET" in results or "FAIL" in results or results == []

    def test_policy_exception_does_not_leak(self):
        """A buggy policy raising mid-decision must not default-open."""

        class BuggyPolicy(ContainmentPolicy):
            default = Action("forward", "policy bug", build="crash")

            def crash(self, ctx):
                raise RuntimeError("policy bug")

        farm = Farm(FarmConfig(seed=93))
        sub = farm.create_subfarm("test")
        web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
        served = http_server(web)
        image, results = http_fetch_image()
        sub.create_inmate(image_factory=image, policy=BuggyPolicy())
        try:
            farm.run(until=120)
        except RuntimeError:
            pass  # the simulator surfaces the bug loudly — acceptable
        assert served == [], "a crashing policy must never forward"


class TestInmateLifecycleFailures:
    def test_revert_mid_flow_closes_state(self):
        farm = Farm(FarmConfig(seed=94))
        sub = farm.create_subfarm("test")
        web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
        http_server(web)
        image, results = http_fetch_image(delay=5.0)
        inmate = sub.create_inmate(image_factory=image, policy=AllowAll())
        sub.router._by_mux = admitted = Admitted()
        farm.run(until=40)
        active_before = sub.router.active_flow_count()
        # Through the controller, as the architecture routes it — the
        # gateway clears per-inmate flow state on the way.
        farm.controller.execute("revert", inmate.vlan)
        farm.run(until=45)
        from repro.gateway.flows import FlowPhase

        for record in admitted.records:
            if record.vlan == inmate.vlan:
                assert record.phase in (FlowPhase.CLOSED, FlowPhase.DROPPED,
                                        FlowPhase.REFUSED), record
        assert active_before >= 0  # documented: flows existed or not

    def test_reverted_inmate_comes_back_functional(self):
        farm = Farm(FarmConfig(seed=95))
        sub = farm.create_subfarm("test")
        web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
        served = http_server(web)
        image, results = http_fetch_image()
        inmate = sub.create_inmate(image_factory=image, policy=AllowAll())
        farm.run(until=60)
        first_count = len(served)
        assert first_count == 1
        inmate.revert()
        farm.run(until=300)
        # The fresh generation boots, re-DHCPs, and fetches again.
        assert len(served) == 2


class TestSafetyNetOrdering:
    def test_safety_filter_fires_before_policy(self):
        """Refused flows never reach the containment server at all."""
        from repro.net.addresses import IPv4Address
        from repro.services.dhcp import DhcpClient

        farm = Farm(FarmConfig(
            seed=96,
            safety_max_flows_per_window=3,
            safety_max_flows_per_destination=3,
            safety_window=300.0,
        ))
        sub = farm.create_subfarm("test")
        web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
        http_server(web)

        def image(host):
            def burst(configured_host):
                for _ in range(10):
                    configured_host.tcp.connect(
                        IPv4Address(EXTERNAL_WEB_IP), 80)

            DhcpClient(host, on_configured=burst).start()

        sub.create_inmate(image_factory=image, policy=AllowAll())
        farm.run(until=60)
        verdicts = sum(sub.containment_server.verdict_counts.values())
        assert verdicts <= 3
        assert sub.safety.flows_refused == 7
