"""§5.6 trace properties: export, anonymity, and table housekeeping."""

from __future__ import annotations

import pytest

from repro.core.policy import AllowAll
from repro.farm import Farm, FarmConfig
from repro.net.capture import read_pcap
from tests.test_containment_end_to_end import (
    EXTERNAL_WEB_IP,
    http_fetch_image,
    http_server,
)

pytestmark = pytest.mark.integration


def run_small_farm(seed=151):
    farm = Farm(FarmConfig(seed=seed))
    sub = farm.create_subfarm("traced")
    # The export and the anonymity check read every inmate-side frame.
    sub.router.trace.store = True
    web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
    http_server(web)
    image, _results = http_fetch_image()
    inmate = sub.create_inmate(image_factory=image, policy=AllowAll())
    farm.run(until=120)
    return farm, sub, inmate


class TestTwoProngedCapture:
    def test_export_produces_readable_pcaps(self, tmp_path):
        farm, sub, inmate = run_small_farm()
        paths = sub.export_traces(str(tmp_path))
        inmate_records = read_pcap(paths["inmate"])
        upstream_records = read_pcap(paths["upstream"])
        assert len(inmate_records) > 5
        assert len(upstream_records) > 3

    def test_inmate_side_trace_is_anonymous(self, tmp_path):
        """'Using these local addresses has the benefit of providing
        some degree of immediate anonymity in the packet traces' —
        the inmate's global address must never appear inmate-side."""
        farm, sub, inmate = run_small_farm()
        global_ip = sub.nat.global_for(inmate.vlan)
        for record in sub.router.trace.records:
            ip = record.ip
            if ip is None:
                continue
            assert ip.src != global_ip and ip.dst != global_ip, record

    def test_upstream_trace_shows_only_global_addresses(self):
        farm, sub, inmate = run_small_farm()
        internal = sub.nat.internal_for(inmate.vlan)
        for record in farm.gateway.upstream_trace.records:
            ip = record.ip
            if ip is None:
                continue
            assert ip.src != internal and ip.dst != internal, record


class TestFlowTableHousekeeping:
    def test_idle_flows_expire(self):
        farm, sub, inmate = run_small_farm()
        assert sub.router.active_flow_count() >= 1
        farm.run(until=600)  # everything long idle by now
        expired = sub.router.expire_idle_flows(max_idle=120.0)
        assert expired >= 1
        assert sub.router.active_flow_count() == 0

    def test_recent_flows_survive_expiry(self):
        farm, sub, inmate = run_small_farm()
        expired = sub.router.expire_idle_flows(max_idle=3600.0)
        assert expired == 0
