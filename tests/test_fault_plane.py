"""The fault-injection plane end to end: scenarios, determinism,
lifecycle faults, and campaign-worker faults.

Integration coverage rides on ``repro.experiments.fault_matrix``'s
`fault_farm_shard`, which runs a whole resilient farm under one named
chaos scenario and asserts the fail-closed property in-shard.
"""

from __future__ import annotations

import pytest

from repro.core.policy import AllowAll
from repro.core.verdicts import ContainmentDecision
from repro.experiments.fault_matrix import (
    QUICK_SCENARIOS,
    build_fault_farm,
    fault_farm_shard,
    summarize,
)
from repro.farm import Farm, FarmConfig
from repro.faults import FaultPlan
from repro.gateway.flowtable import EMIT_UPSTREAM
from repro.net.http import echo
from repro.net.packet import SYN, IPv4Packet, TCPSegment
from repro.parallel.campaign import Campaign, ShardSpec
from repro.parallel.pool import run_campaign
from repro.parallel.tasks import TARGET_IP, TARGET_PORT, _streaming_image
from repro.verify import certify_farm, check_wire
from tests.golden import FARM_PINS, farm_pin

pytestmark = pytest.mark.integration

SMALL = dict(subfarms=1, inmates=2, rounds=8)
#: The fault-matrix cells of tests/golden/farm_digests.json.
FAULT_PINS = sorted(name for name in FARM_PINS if name.startswith("fault/"))


class TestScenarios:
    @pytest.mark.parametrize("scenario", QUICK_SCENARIOS)
    def test_quick_scenario_fails_closed(self, scenario):
        payload = fault_farm_shard(seed=11, scenario=scenario, **SMALL)
        assert payload["degradation_reported"]
        # The in-shard check is certificate-backed: the static proof
        # must be CONTAINED and the wire neither unlicensed nor
        # uncovered.
        assert payload["certificate"]["result"] == "CONTAINED"
        assert payload["coverage"]["violations"] == []

    def test_cs_slow_still_verdicts(self):
        payload = fault_farm_shard(seed=11, scenario="shim_degraded",
                                   **SMALL)
        assert payload["coverage"]["violations"] == []

    def test_crash_scenario_records_failover(self):
        payload = fault_farm_shard(seed=11, scenario="cs_crash", **SMALL)
        resilience = payload["resilience"]
        assert any(s["failovers"] >= 1 or s["fail_closed"] >= 1
                   for s in resilience.values())


def _unlicensed(farm):
    """The wire check's ``unlicensed`` violations of ``farm``, by path."""
    report = check_wire(certify_farm(farm), farm)
    return [{key: violation[key] for key in
             ("subfarm", "vlan", "dst", "proto", "dport")}
            for violation in report.violations
            if violation["class"] == "unlicensed"]


class TestLeakDetails:
    @pytest.mark.parametrize("decision", [
        None, ContainmentDecision.drop(policy="fail-closed")],
        ids=["unverdicted", "fail-closed"])
    def test_unverdicted_flow_seen_upstream_is_reported(self, decision):
        # Plant a leak: take a forwarded flow, whose NAT'd tuple is on
        # the upstream trace, and make it one the fail-closed property
        # says must never get there.
        farm = build_fault_farm(11, **SMALL)
        (sub,) = farm.subfarms.values()
        assert _unlicensed(farm) == []
        forwarded = next(entry for entry in sub.router.flow_log
                         if entry.inmate_is_originator)
        if decision is None:
            # The flow as one that never got a verdict: no line.
            sub.router.flow_log.remove(forwarded)
        else:
            forwarded.policy = decision.policy
        assert _unlicensed(farm) == [{
            "subfarm": sub.name, "vlan": forwarded.vlan, "dst": TARGET_IP,
            "proto": "tcp", "dport": TARGET_PORT}]

    def test_a_leak_of_a_flow_evicted_before_its_verdict_is_reported(self):
        # The containment server hangs the whole run and no deadline
        # closes the flow out, so it is still waiting for its verdict
        # when a copy of its SYN is planted upstream.  Then its inmate
        # is reverted: the flow is evicted with no verdict and no line,
        # and the router holds nothing of it.
        farm = Farm(FarmConfig(seed=11, fault_plan={"specs": [
            {"kind": "cs_hang", "start": 0.0, "end": 1000.0}]}))
        echo(farm.add_external_host("echo", TARGET_IP), TARGET_PORT)
        sub = farm.create_subfarm("hung")
        sub.set_default_policy(AllowAll())
        sub.create_inmate(image_factory=_streaming_image(8))
        farm.run(until=40.0)
        router = sub.router
        (record,) = router._by_mux.values()
        assert record.decision is None
        orig = record.orig
        router._send((EMIT_UPSTREAM, None), IPv4Packet(
            sub.nat.global_for(record.vlan), orig.resp_ip,
            TCPSegment(orig.orig_port, orig.resp_port, record.client_isn,
                       0, SYN)))
        router.forget_inmate(record.vlan)
        assert not router._by_mux and not router.flow_log
        assert _unlicensed(farm) == [{
            "subfarm": "hung", "vlan": record.vlan, "dst": TARGET_IP,
            "proto": "tcp", "dport": TARGET_PORT}]

    def test_a_new_incarnation_needs_its_own_verdict(self):
        # A tuple whose first flow was forwarded, then reused by a flow
        # with no verdict that got out: the first flow's line does not
        # license the second's SYN.
        farm = build_fault_farm(11, **SMALL)
        (sub,) = farm.subfarms.values()
        forwarded = next(entry for entry in sub.router.flow_log
                         if entry.inmate_is_originator)
        orig = forwarded.orig
        sub.router._send((EMIT_UPSTREAM, None), IPv4Packet(
            sub.nat.global_for(forwarded.vlan), orig.resp_ip,
            TCPSegment(orig.orig_port, orig.resp_port, 4242, 0, SYN)))
        assert _unlicensed(farm) == [{
            "subfarm": sub.name, "vlan": forwarded.vlan, "dst": TARGET_IP,
            "proto": "tcp", "dport": TARGET_PORT}]


class TestSummary:
    def test_a_cell_that_forwarded_and_checked_nothing_is_a_violation(self):
        from types import SimpleNamespace

        seen = fault_farm_shard(seed=11, scenario="cs_crash", **SMALL)
        assert seen["coverage"]["checked"] > 0
        blind = dict(seen, coverage={"checked": 0, "covered": 0,
                                     "violations": []})
        # Every flow of a partitioned cell fails closed: nothing goes
        # out, so there is nothing to check.
        closed = fault_farm_shard(seed=11, scenario="shim_partition",
                                  **SMALL)
        assert closed["coverage"]["checked"] == 0
        result = SimpleNamespace(digest="", merged={}, shard_results=[
            SimpleNamespace(ok=True, label=label, payload=payload)
            for label, payload in (("seen", seen), ("blind", blind),
                                   ("closed", closed))])
        assert summarize(result)["violations"] == [
            "blind: wire check checked nothing"]


class TestDeterminism:
    def test_same_seed_same_scenario_same_digest(self):
        first = fault_farm_shard(seed=11, scenario="cs_crash", **SMALL)
        second = fault_farm_shard(seed=11, scenario="cs_crash", **SMALL)
        assert first["digest"] == second["digest"]

    @pytest.mark.parametrize("name", FAULT_PINS)
    def test_scenario_digest_matches_the_pin(self, name):
        """Every scenario under both pending policies, at the default
        shape with one standby server, replays to its pinned digest —
        which folds each subfarm's resilience summary (server health
        transitions, probes, degraded intervals, failovers)."""
        assert FARM_PINS[name]() == farm_pin(name)

    def test_different_scenarios_diverge(self):
        baseline = fault_farm_shard(seed=11, scenario="baseline", **SMALL)
        chaos = fault_farm_shard(seed=11, scenario="cs_crash", **SMALL)
        assert baseline["digest"] != chaos["digest"]
        assert baseline["coverage"]["violations"] == []


class TestLifecycleFaults:
    def test_revert_fail_triggers_controller_retry(self):
        payload = fault_farm_shard(seed=11, scenario="revert_fail",
                                   subfarms=1, inmates=2, rounds=8)
        assert payload["lifecycle"]["retries"] >= 1
        assert payload["coverage"]["violations"] == []

    def test_exhausted_retry_budget_abandons_inmate(self):
        farm = Farm(FarmConfig(
            seed=3,
            lifecycle_retry_limit=1,
            lifecycle_retry_backoff=5.0,
            fault_plan={"specs": [
                {"kind": "revert_fail", "count": 5},
            ]},
        ))
        sub = farm.create_subfarm("lab")
        inmate = sub.create_inmate(image_factory=lambda host: None)
        farm.sim.schedule(40.0, farm.controller.execute, "revert",
                          inmate.vlan)
        farm.run(until=200.0)

        # One external revert + one retry, both injected to fail, then
        # the controller gives up and records the abandonment.
        assert len(farm.controller.retries_scheduled) == 1
        assert len(farm.controller.abandoned) == 1
        _, action, vlan = farm.controller.abandoned[0]
        assert (action, vlan) == ("revert", inmate.vlan)


class TestWorkerFaults:
    def plan(self, kind):
        return FaultPlan.coerce({"specs": [{"kind": kind, "shard": 1}]})

    def campaign(self):
        return Campaign.seed_sweep(
            "chaos-workers", "repro.parallel.tasks:noop_shard",
            count=3, base_seed=5)

    def test_worker_error_is_structured_and_isolated(self):
        result = run_campaign(self.campaign(), workers=1,
                              fault_plan=self.plan("worker_error"))
        assert not result.ok
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure["shard"] == 1
        assert failure["kind"] == "error"
        # The other shards still completed.
        assert sum(1 for r in result.shard_results if r.ok) == 2

    def test_worker_crash_serial_path_survives(self):
        """On the in-process serial path an injected crash must not
        kill the test process: it degrades to a structured failure."""
        result = run_campaign(self.campaign(), workers=1,
                              fault_plan=self.plan("worker_crash"))
        assert not result.ok
        assert result.failures[0]["kind"] == "crash"

    def test_fault_overlay_is_deterministic(self):
        plan = self.plan("worker_error")
        first = run_campaign(self.campaign(), workers=1, fault_plan=plan)
        second = run_campaign(self.campaign(), workers=1, fault_plan=plan)
        assert first.digest == second.digest

    def test_no_plan_means_no_overlay(self):
        clean = run_campaign(self.campaign(), workers=1)
        explicit = run_campaign(self.campaign(), workers=1,
                                fault_plan=FaultPlan())
        assert clean.ok and explicit.ok
        assert clean.digest == explicit.digest
