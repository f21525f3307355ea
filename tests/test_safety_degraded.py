"""The safety filter stays authoritative under sustained degraded mode.

Satellite for the fault plane: when every containment server is DOWN
the subfarm runs degraded — but the safety filter's rate bounds must
keep applying *before* the pending policy, and nothing may leak
upstream no matter how aggressively an inmate connects.
"""

from __future__ import annotations

import pytest

from repro.core.policy import AllowAll
from repro.farm import Farm, FarmConfig
from repro.net.addresses import IPv4Address
from tests.test_containment_end_to_end import EXTERNAL_WEB_IP, http_server

pytestmark = pytest.mark.integration


def aggressive_image(attempts=12, spacing=2.0, target=EXTERNAL_WEB_IP,
                     port=80):
    """Image factory: boot via DHCP, then open one connection every
    ``spacing`` seconds — enough volume to trip a small safety budget."""

    def image(host):
        from repro.services.dhcp import DhcpClient

        def burst(configured_host):
            def connect():
                conn = configured_host.tcp.connect(IPv4Address(target), port)
                conn.on_established = lambda c: c.send(b"GET / HTTP/1.1\r\n")
            for i in range(attempts):
                configured_host.sim.schedule(1.0 + i * spacing, connect)

        DhcpClient(host, on_configured=burst).start()

    return image


def degraded_farm(max_per_window=4, attempts=12):
    farm = Farm(FarmConfig(
        seed=13,
        verdict_deadline=2.0,
        safety_max_flows_per_window=max_per_window,
        safety_max_flows_per_destination=max_per_window,
        safety_window=300.0,
        fault_plan={"specs": [{"kind": "cs_crash", "at": 5.0}]},
    ))
    http_server(farm.add_external_host("webserver", EXTERNAL_WEB_IP))
    sub = farm.create_subfarm("degraded")
    sub.set_default_policy(AllowAll())
    sub.create_inmate(image_factory=aggressive_image(attempts=attempts))
    return farm, sub


class TestSafetyUnderDegradedMode:
    def test_rate_bounds_hold_while_degraded(self):
        farm, sub = degraded_farm(max_per_window=4, attempts=12)
        farm.run(until=120.0)

        # The pool went degraded before the first connection attempt
        # (crash at t=5, inmates boot at t=30)...
        assert sub.resilience.degraded
        # ...yet the safety budget still capped admission: only
        # max_per_window flows ever became flow records.
        assert sub.safety.flows_refused >= 1
        assert sub.safety.flows_admitted <= 4
        assert sub.router.counters["flows_created"] <= 4
        assert sub.router.counters["flows_refused"] \
            == sub.safety.flows_refused

    def test_admitted_flows_still_fail_closed(self):
        farm, sub = degraded_farm(max_per_window=4, attempts=12)
        farm.run(until=120.0)

        summary = sub.resilience.summary()
        # Every admitted flow was resolved by the pending policy, not
        # forwarded: fail-closed count equals admitted flows.
        assert summary["fail_closed"] == sub.safety.flows_admitted
        assert summary["fail_open"] == 0
        assert summary["degraded_refusals"] >= 1

    def test_nothing_leaks_upstream(self):
        farm, sub = degraded_farm(max_per_window=4, attempts=12)
        farm.run(until=120.0)

        leaked = [r for r in farm.gateway.upstream_trace.records
                  if r.ip is not None and str(r.ip.dst) == EXTERNAL_WEB_IP]
        assert not leaked

    def test_safety_alerts_recorded_during_outage(self):
        farm, sub = degraded_farm(max_per_window=4, attempts=12)
        farm.run(until=120.0)

        refused = [line for line in sub.router.flow_log
                   if line.verdict == "REFUSED"]
        assert len(refused) == sub.safety.flows_refused >= 1
        assert refused[0].vlan == 2  # the first allocated inmate VLAN
