"""Clickbot containment end to end, and the safety filter as the
last line of defense (§5.1)."""

from __future__ import annotations

import pytest

from repro.core.policy import AllowAll, ContainmentPolicy
from repro.farm import Farm, FarmConfig
from repro.inmates.images import autoinfect_image
from repro.malware.corpus import Sample
from repro.net.addresses import IPv4Address
from repro.policies.clickbot import ClickbotPolicy
from repro.services.dhcp import DhcpClient
from repro.world.builder import ExternalWorld

pytestmark = pytest.mark.integration


def build_click_world(farm):
    world = ExternalWorld(farm)
    publisher = world.add_publisher("news-portal.example")
    world.add_click_cnc("clickbot-cc.example", tasks=[
        {"host": "news-portal.example", "path": f"/article/{i}",
         "referer": "http://search.example/q"} for i in range(6)
    ], interval=2.0)
    return world, publisher


class TestClickbotWorkflow:
    def test_contained_clickbot_learns_without_fraud(self):
        farm = Farm(FarmConfig(seed=71))
        sub = farm.create_subfarm("clickstudy")
        world, publisher = build_click_world(farm)
        sink = sub.add_catchall_sink()
        policy = ClickbotPolicy()
        inmate = sub.create_inmate(image_factory=autoinfect_image(),
                                   policy=policy)
        policy.set_sample(inmate.vlan, inmate.vlan, Sample("clickbot"))
        farm.run(until=400)

        specimen = getattr(inmate.host, "specimen", None)
        assert specimen is not None
        # The C&C task fetch went out (the study's subject matter)...
        assert specimen.stats.get("cnc_fetches", 0) >= 1
        # ...but zero clicks landed on the real publisher.
        assert publisher.click_count == 0
        # The clicks are visible in the sink, referer chain included.
        click_payloads = sink.payloads_for_port(80)
        assert any(b"Referer: http://search.example/q" in p
                   for p in click_payloads)

    def test_unconstrained_clickbot_commits_fraud(self):
        farm = Farm(FarmConfig(seed=71))
        sub = farm.create_subfarm("clickstudy")
        world, publisher = build_click_world(farm)
        sub.add_catchall_sink()
        from repro.baselines.policies import UnconstrainedPolicy

        policy = UnconstrainedPolicy()
        inmate = sub.create_inmate(image_factory=autoinfect_image(),
                                   policy=policy)
        policy.set_sample(inmate.vlan, inmate.vlan, Sample("clickbot"))
        farm.run(until=400)
        assert publisher.click_count > 0


def flooder_image(target: str, rate_interval: float = 0.02):
    """A specimen that opens connections as fast as it can — the
    flooding behaviour the safety filter exists to stop."""

    def image(host):
        def flood(configured_host):
            counter = {"n": 0}

            def tick():
                counter["n"] += 1
                configured_host.tcp.connect(IPv4Address(target),
                                            8000 + counter["n"] % 100)
                configured_host.sim.schedule(rate_interval, tick,
                                             label="flood")

            tick()

        DhcpClient(host, on_configured=flood).start()

    return image


class TestSafetyFilter:
    def test_filter_caps_even_a_forward_happy_policy(self):
        """§5.1: the safety filter is independent of policy — even a
        buggy AllowAll cannot turn an inmate into a flooder."""
        farm = Farm(FarmConfig(
            seed=73,
            safety_max_flows_per_window=50,
            safety_max_flows_per_destination=50,
            safety_window=60.0,
        ))
        sub = farm.create_subfarm("flood")
        victim = farm.add_external_host("victim", "203.0.113.66")
        victim.tcp.listen_any(lambda conn: None)
        sub.create_inmate(image_factory=flooder_image("203.0.113.66"),
                          policy=AllowAll())
        farm.run(until=120)

        assert sub.safety.flows_refused > 0
        refused = [line for line in sub.router.flow_log
                   if line.verdict == "REFUSED"]
        assert len(refused) == sub.safety.flows_refused, \
            "refusals must be visible to operators"
        # At most the window budget got through per 60s window (plus
        # slack for windows spanning the run).
        assert sub.safety.flows_admitted <= 50 * 3

    def test_filter_alerts_identify_the_inmate(self):
        farm = Farm(FarmConfig(
            seed=73,
            safety_max_flows_per_window=20,
            safety_max_flows_per_destination=20,
            safety_window=60.0,
        ))
        sub = farm.create_subfarm("flood")
        victim = farm.add_external_host("victim", "203.0.113.66")
        victim.tcp.listen_any(lambda conn: None)
        inmate = sub.create_inmate(
            image_factory=flooder_image("203.0.113.66"),
            policy=AllowAll())
        farm.run(until=120)
        refused = [line for line in sub.router.flow_log
                   if line.verdict == "REFUSED"]
        assert len(refused) == sub.safety.flows_refused > 0
        assert all(line.vlan == inmate.vlan for line in refused)
