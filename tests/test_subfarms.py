"""Figures 1 and 3: architecture separation and parallel subfarms."""

from __future__ import annotations

import pytest

from repro.core.policy import AllowAll, DefaultDeny, ReflectAll
from repro.farm import Farm, FarmConfig
from repro.inmates.images import idle_image
from repro.net.addresses import IPv4Address
from tests.test_containment_end_to_end import (
    EXTERNAL_WEB_IP,
    http_fetch_image,
    http_server,
)

pytestmark = pytest.mark.integration


class TestFigure3Subfarms:
    def build(self, seed=19):
        """Three subfarms: deployment (forward), development (reflect),
        and a default-deny one — different policies, same gateway."""
        farm = Farm(FarmConfig(seed=seed))
        web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
        served = http_server(web)

        subs, results = {}, {}
        for name, policy in (
            ("deployment", AllowAll()),
            ("development", ReflectAll()),
            ("locked", DefaultDeny()),
        ):
            sub = farm.create_subfarm(name)
            sub.add_catchall_sink()
            image, res = http_fetch_image()
            sub.create_inmate(image_factory=image, policy=policy)
            subs[name] = sub
            results[name] = res
        return farm, subs, results, served

    def test_disjoint_vlan_ranges(self):
        farm, subs, _results, _served = self.build()
        vlan_sets = [sub.router.vlan_ids for sub in subs.values()]
        for i, a in enumerate(vlan_sets):
            for b in vlan_sets[i + 1:]:
                assert not (a & b)

    def test_policies_apply_independently(self):
        farm, subs, results, served = self.build()
        farm.run(until=120)
        # Deployment subfarm reached the web server...
        deployment = [r for r in results["deployment"]
                      if not isinstance(r, str)]
        assert len(deployment) == 1
        # ...development got reflected into its own sink...
        assert subs["development"].sinks["sink"].connections_accepted == 1
        assert [r for r in results["development"]
                if not isinstance(r, str)] == []
        # ...and the locked subfarm saw a reset.
        assert "RESET" in results["locked"] or "FAIL" in results["locked"]
        # Exactly one request total escaped (the deployment one).
        assert len(served) == 1

    def test_separate_containment_servers(self):
        farm, subs, _results, _served = self.build()
        farm.run(until=120)
        assert subs["deployment"].containment_server.verdict_counts == \
            {"FORWARD": 1}
        assert subs["development"].containment_server.verdict_counts == \
            {"REFLECT": 1}
        assert subs["locked"].containment_server.verdict_counts == \
            {"DROP": 1}

    def test_separate_traces(self):
        farm, subs, _results, _served = self.build()
        for sub in subs.values():
            sub.router.trace.store = True  # store the inmate side
        farm.run(until=120)
        for name, sub in subs.items():
            assert sub.router.trace.rotated_out == 0, name
            assert len(sub.router.trace), name
            vlans_in_trace = {
                record.frame.vlan
                for record in sub.router.trace.records
                if record.frame.vlan is not None
            }
            assert vlans_in_trace <= sub.router.vlan_ids, (
                f"subfarm {name} trace leaked another subfarm's VLANs"
            )

    def test_internal_address_reuse_across_subfarms(self):
        """Each subfarm has its own RFC 1918 space; bindings never
        collide at the gateway because flows are per-subfarm."""
        farm, subs, _results, _served = self.build()
        farm.run(until=120)
        internals = [
            sub.nat.internal_for(next(iter(sub.router.vlan_ids)))
            for sub in subs.values()
        ]
        assert all(ip is not None for ip in internals)
        networks = {str(ip).rsplit(".", 2)[0] for ip in internals}
        assert len(networks) == 3  # 10.100/, 10.101/, 10.102/


class TestContainmentCluster:
    """§7.2: a subfarm grown into a cluster of containment servers."""

    def servers(self, sub):
        return [sub.containment_server] + sub.extra_containment_servers

    def test_added_servers_take_the_primary_service_time(self):
        """Adding servers never resets a service time already set."""
        sub = Farm(FarmConfig(seed=1)).create_subfarm("load")
        sub.set_cs_service_time(0.05)
        sub.add_containment_servers(1)
        assert [s.service_time for s in self.servers(sub)] == [0.05, 0.05]

    def test_each_call_names_hosts_by_position(self):
        """A second call numbers on from the first: distinct names,
        hence distinct name-derived MACs and RNG streams."""
        sub = Farm(FarmConfig(seed=1)).create_subfarm("grow")
        sub.add_containment_servers(1)
        sub.add_containment_servers(1)
        hosts = [server.host for server in self.servers(sub)]
        assert [host.name for host in hosts] == [
            "grow-cs", "grow-cs2", "grow-cs3"]
        assert len({host.mac.value for host in hosts}) == 3

    def test_the_list_is_what_the_router_selects_from(self):
        sub = Farm(FarmConfig(seed=1)).create_subfarm("sel")
        servers = sub.add_containment_servers(2)
        assert servers is sub.containment_servers
        assert servers == self.servers(sub)
        assert [s.host.ip for s in servers] == sub.router._cs_list


class TestFigure1Separation:
    def test_inmates_cannot_reach_management_network(self):
        """The management network is physically separate: an inmate
        addressing the controller is contained like any other flow
        (the handshake it sees is the containment server's synthesized
        one) and no packet of its ever reaches the controller host."""
        farm = Farm(FarmConfig(seed=23))
        sub = farm.create_subfarm("test")
        sub.add_catchall_sink()
        outcome = []
        before = farm.controller_host.packets_received

        def image(host):
            from repro.services.dhcp import DhcpClient

            def attack(configured_host):
                conn = configured_host.tcp.connect(
                    farm.controller_ip, 9048)
                conn.on_established = lambda c: c.send(b"terminate 2")
                conn.on_reset = lambda c: outcome.append(
                    "refused" if c.established_at is None else "reset")

            DhcpClient(host, on_configured=attack).start()

        sub.create_inmate(image_factory=image, policy=DefaultDeny())
        farm.run(until=120)
        # The flow was dropped, and the controller host saw nothing.
        assert "reset" in outcome or "refused" in outcome
        assert farm.controller_host.packets_received == before
        assert farm.controller.executed == {}
        counts = sub.containment_server.verdict_counts
        assert counts.get("DROP", 0) == 1

    def test_lifecycle_messages_do_cross_management_network(self):
        farm = Farm(FarmConfig(seed=23))
        sub = farm.create_subfarm("test")
        inmate = sub.create_inmate(image_factory=idle_image())
        farm.run(until=60)
        assert inmate.state.value == "running"
        # The containment server's out-of-band interface carries the
        # text protocol to the controller.
        sub.containment_server.issue_lifecycle("stop", inmate.vlan)
        farm.run(until=70)
        assert inmate.state.value == "stopped"
        assert farm.controller.executed == {"stop": 1}

    def test_unknown_vlan_lifecycle_ignored(self):
        farm = Farm(FarmConfig(seed=23))
        sub = farm.create_subfarm("test")
        sub.containment_server.issue_lifecycle("revert", 999)
        farm.run(until=10)
        assert farm.controller.rejected["unknown-target"] == 1
