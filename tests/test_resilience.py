"""The resilience layer: deadlines, retries, failover, fail-closed.

These tests drive `repro.gateway.failover` through whole-farm runs with
injected faults: a partitioned shim link must fail closed, a crashed
primary must fail over to a standby, a restored server must be probed
back to HEALTHY, and fail-open must be impossible for flows whose
containment-server handshake never completed.
"""

from __future__ import annotations

import pytest

from repro.core.policy import AllowAll
from repro.farm import Farm, FarmConfig
from tests.helpers import Admitted
from tests.test_containment_end_to_end import (
    EXTERNAL_WEB_IP,
    http_fetch_image,
    http_server,
)

pytestmark = pytest.mark.integration


def resilient_farm(specs, *, seed=7, pending_policy="drop",
                   verdict_deadline=3.0, extra_cs=0, inmates=1,
                   results=None, **config_kwargs):
    farm = Farm(FarmConfig(
        seed=seed,
        verdict_deadline=verdict_deadline,
        pending_policy=pending_policy,
        fault_plan={"specs": specs},
        **config_kwargs,
    ))
    http_server(farm.add_external_host("webserver", EXTERNAL_WEB_IP))
    sub = farm.create_subfarm("chaos")
    sub.set_default_policy(AllowAll())
    if extra_cs:
        sub.add_containment_servers(extra_cs)
    results = results if results is not None else []
    image, _ = http_fetch_image(results=results)
    for _ in range(inmates):
        sub.create_inmate(image_factory=image)
    return farm, sub, results


def upstream_web_frames(farm):
    return [r for r in farm.gateway.upstream_trace.records
            if r.ip is not None and str(r.ip.dst) == EXTERNAL_WEB_IP]


class TestFailClosed:
    def test_partition_drops_unverdicted_flow(self):
        """A fully partitioned shim link must produce a synthetic DROP
        annotated fail-closed — and nothing may reach upstream."""
        farm, sub, results = resilient_farm(
            [{"kind": "shim_partition", "start": 0.0}])
        farm.run(until=90.0)

        assert sub.resilience.fail_closed >= 1
        assert sub.resilience.fail_open == 0
        assert any(e.policy == "fail-closed" and e.verdict == "DROP"
                   for e in sub.router.flow_log)
        assert not upstream_web_frames(farm)
        assert "MALWARE" not in str(results)

    def test_forward_policy_cannot_fail_open_without_handshake(self):
        """pending_policy='forward' still fails closed when the CS
        handshake never completed: there is no ISN mapping to hand
        off, so the flow cannot be forwarded."""
        farm, sub, results = resilient_farm(
            [{"kind": "shim_partition", "start": 0.0}],
            pending_policy="forward")
        farm.run(until=90.0)

        assert sub.resilience.fail_closed >= 1
        assert sub.resilience.fail_open == 0
        assert not upstream_web_frames(farm)

    def test_retries_observe_backoff_before_giving_up(self):
        farm, sub, _ = resilient_farm(
            [{"kind": "shim_partition", "start": 0.0}])
        farm.run(until=90.0)
        # verdict_retries defaults to 2: two retries, then pending.
        assert sub.resilience.retries >= 2
        summary = sub.resilience.summary()
        assert summary["fail_closed"] >= 1
        assert summary["pending_policy"] == "drop"


class TestFailOpen:
    def test_hung_server_with_forward_policy_fails_open(self):
        """A hung CS answers the TCP handshake but never issues a
        verdict; with pending_policy='forward' the flow is released
        with a fail-open FORWARD after the retry budget."""
        farm, sub, results = resilient_farm(
            [{"kind": "cs_hang", "start": 0.0, "end": 1000.0}],
            pending_policy="forward")
        farm.run(until=120.0)

        assert sub.resilience.fail_open >= 1
        assert any(e.policy == "fail-open" and e.verdict == "FORWARD"
                   for e in sub.router.flow_log)
        # The released flow really did complete its fetch upstream.
        assert any(getattr(r, "status", None) == 200 for r in results)


class TestFailover:
    def test_crashed_primary_fails_over_to_standby(self):
        """With a standby pool, a silent primary costs retries but the
        flow still ends with a real verdict from the standby."""
        farm, sub, results = resilient_farm(
            [{"kind": "cs_crash", "at": 10.0, "server": 0}],
            extra_cs=1, inmates=2)
        farm.run(until=120.0)

        assert sub.resilience.failovers >= 1
        assert sub.resilience.fail_closed == 0
        # Both inmates (one homed to each server) completed their fetch.
        assert sum(1 for r in results
                   if getattr(r, "status", None) == 200) == 2
        summary = sub.resilience.summary()
        assert any(state == "down" for _, _, state in summary["transitions"])
        assert "down" in summary["servers"].values()
        assert "healthy" in summary["servers"].values()

    def test_probe_restores_crashed_server(self):
        """cs_crash + restore_after: the health probe notices the
        restored server and the degraded interval closes."""
        farm, sub, _ = resilient_farm(
            [{"kind": "cs_crash", "at": 10.0, "restore_after": 40.0}],
            verdict_deadline=2.0)
        farm.run(until=120.0)

        summary = sub.resilience.summary()
        states = [state for _, _, state in summary["transitions"]]
        assert "down" in states
        assert states[-1] == "healthy"
        assert summary["probes"] >= 1
        assert len(summary["degraded_intervals"]) == 1
        start, end = summary["degraded_intervals"][0]
        assert end is not None and end > start
        assert summary["degraded_seconds"] > 0
        assert not sub.resilience.degraded

    def test_probe_restores_crashed_standby_by_its_own_address(self):
        """cs_crash on server 1: the VLAN homed on the standby fails
        over to the primary, and only the standby's own health check
        brings it back — once the crash is over, not before."""
        farm, sub, results = resilient_farm(
            [{"kind": "cs_crash", "at": 10.0, "server": 1,
              "restore_after": 40.0}],
            extra_cs=1, inmates=2, verdict_deadline=2.0)
        sub.router._by_mux = admitted = Admitted()
        farm.run(until=120.0)

        primary, standby = sub.containment_servers
        assert standby.fault_state is not None
        assert primary.fault_state is None
        homed = [record for record in admitted.records
                 if sub.router._cs_list[record.vlan % 2] == standby.host.ip]
        assert homed and all(record.cs_ip == primary.host.ip
                             for record in homed)
        assert sum(1 for r in results
                   if getattr(r, "status", None) == 200) == 2

        summary = sub.resilience.summary()
        assert summary["failovers"] >= 1
        assert summary["fail_closed"] == 0
        transitions = summary["transitions"]
        assert {ip for _, ip, _ in transitions} == {str(standby.host.ip)}
        assert [state for _, _, state in transitions] == [
            "suspect", "down", "healthy"]
        assert transitions[-1][0] >= 50.0   # crashed at 10 for 40 s
        assert summary["probes"] >= 1
        assert summary["servers"] == {str(primary.host.ip): "healthy",
                                      str(standby.host.ip): "healthy"}


class TestDegradedMode:
    def test_degraded_mode_suspends_triggers(self):
        """An all-DOWN pool must not let absence-of-activity triggers
        misread the outage as inmate dormancy."""
        farm, sub, _ = resilient_farm(
            [{"kind": "cs_crash", "at": 10.0, "restore_after": 40.0}],
            verdict_deadline=2.0)
        farm.run(until=120.0)

        assert len(sub.trigger_engine.suspensions) == 1
        start, end = sub.trigger_engine.suspensions[0]
        assert end is not None and end > start

    def test_degraded_mode_refuses_new_flows_inline(self):
        """While degraded, new flows never even start a CS leg: the
        pending policy applies before a single shim packet moves."""
        farm = Farm(FarmConfig(
            seed=7, verdict_deadline=2.0,
            fault_plan={"specs": [{"kind": "cs_crash", "at": 10.0}]}))
        http_server(farm.add_external_host("webserver", EXTERNAL_WEB_IP))
        sub = farm.create_subfarm("chaos")
        sub.set_default_policy(AllowAll())
        results = []
        early, _ = http_fetch_image(results=results, delay=1.0)
        late, _ = http_fetch_image(results=results, delay=45.0)
        sub.create_inmate(image_factory=early)   # burns the retry budget
        sub.create_inmate(image_factory=late)    # arrives while degraded
        farm.run(until=120.0)

        summary = sub.resilience.summary()
        assert summary["fail_closed"] == 2
        assert summary["degraded_refusals"] >= 1
        assert not upstream_web_frames(farm)


class TestConfigSurface:
    def test_resilience_config_validation(self):
        """FarmConfig is the one validator of the resilience knobs."""
        with pytest.raises(ValueError):
            FarmConfig(verdict_deadline=0.0)
        with pytest.raises(ValueError):
            FarmConfig(verdict_deadline=5.0, verdict_retries=-1)
        with pytest.raises(ValueError):
            FarmConfig(verdict_deadline=5.0, pending_policy="maybe")
        with pytest.raises(ValueError):
            FarmConfig(verdict_deadline=5.0, retry_backoff=0.5)

    def test_farm_config_rejects_bad_pending_policy(self):
        with pytest.raises(ValueError):
            FarmConfig(pending_policy="yolo")

    def test_set_pending_policy_requires_resilience(self):
        farm = Farm(FarmConfig(seed=1))
        sub = farm.create_subfarm("plain")
        assert sub.resilience is None
        with pytest.raises(RuntimeError):
            sub.set_pending_policy("forward")

    def test_set_pending_policy_validates(self):
        farm = Farm(FarmConfig(seed=1, verdict_deadline=5.0))
        sub = farm.create_subfarm("guarded")
        with pytest.raises(ValueError):
            sub.set_pending_policy("yolo")
        sub.set_pending_policy("forward")
        assert sub.resilience.pending_policy == "forward"

    def test_default_farm_has_no_resilience_objects(self):
        farm = Farm(FarmConfig(seed=1))
        sub = farm.create_subfarm("plain")
        assert farm.fault_injector is None
        assert sub.resilience is None
        assert sub.router.shim_link_faults is None
        assert sub.router.resilience is None
