"""The isolation-model compiler: published surfaces (DSL tables, built-in
cells), concolic probing, fault-plan overlays, and digest identity.
"""

from __future__ import annotations

import pytest

from repro.core.dsl import DslPolicy
from repro.core.policy import (
    AllowAll,
    ContainmentPolicy,
    DefaultDeny,
    ReflectAll,
)
from repro.core.verdicts import ContainmentDecision, Verdict
from repro.farm import Farm, FarmConfig
from repro.faults.plan import FaultPlan
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.verify.model import (
    compile_farm,
    compile_policy,
)


def _cell_for(model, direction, proto, port, content="*"):
    """The decision-surface cell covering one concrete point."""
    for cell in model.cells(direction, proto):
        if cell.port_lo <= port <= cell.port_hi \
                and cell.content in (content, "*"):
            return cell
    raise AssertionError(f"no cell covers {direction}/{proto}/{port}")


class TestDslCompilation:
    def test_atoms_partition_and_first_match(self):
        policy = DslPolicy(
            "port 80-100/tcp -> drop\n"
            "port 80-443/tcp -> forward\n"
            "default -> reflect\n")
        model = compile_policy(policy)
        assert model.exact
        assert _cell_for(model, "outbound", PROTO_TCP, 80).verdict == "DROP"
        assert _cell_for(model, "outbound", PROTO_TCP, 100).verdict == "DROP"
        assert _cell_for(model, "outbound", PROTO_TCP,
                         101).verdict == "FORWARD"
        assert _cell_for(model, "outbound", PROTO_TCP,
                         443).verdict == "FORWARD"
        assert _cell_for(model, "outbound", PROTO_TCP,
                         444).verdict == "REFLECT"
        # The udp surface never saw the tcp rules.
        assert _cell_for(model, "outbound", PROTO_UDP,
                         80).verdict == "REFLECT"

    def test_surface_is_total(self):
        """Every (direction, proto, port) point is covered by exactly
        one endpoint-decidable cell."""
        policy = DslPolicy(
            "port 25/tcp -> drop\n"
            "port 6000-7000/udp -> limit 2000\n"
            "default -> forward\n")
        model = compile_policy(policy)
        for direction in ("outbound", "inbound"):
            for proto in (PROTO_TCP, PROTO_UDP):
                cells = [cell for cell in model.cells(direction, proto)
                         if cell.content in ("*", "other")]
                covered = sorted((cell.port_lo, cell.port_hi)
                                 for cell in cells)
                cursor = 0
                for lo, hi in covered:
                    assert lo == cursor
                    cursor = hi + 1
                assert cursor == 65536

    def test_content_rules_branch_within_atom(self):
        policy = DslPolicy(
            'port 80/tcp content ~ "GET " -> rewrite\n'
            "port 80/tcp -> drop\n"
            "default -> forward\n")
        model = compile_policy(policy)
        cells = [cell for cell in model.cells("outbound", PROTO_TCP)
                 if cell.port_lo <= 80 <= cell.port_hi]
        by_content = {cell.content: cell.verdict for cell in cells}
        assert by_content["prefix:'GET '"] == "REWRITE"
        assert by_content["other"] == "DROP"

    def test_redirect_target_classified(self):
        world = compile_policy(DslPolicy(
            "port 80/tcp -> redirect 203.0.113.99\ndefault -> drop\n"))
        cell = _cell_for(world, "outbound", PROTO_TCP, 80)
        assert cell.verdict == "REDIRECT"
        assert cell.target == "203.0.113.99"
        assert cell.target_class == "world"
        farm = compile_policy(DslPolicy(
            "port 80/tcp -> redirect 10.9.9.9\ndefault -> drop\n"))
        assert _cell_for(farm, "outbound", PROTO_TCP,
                         80).target_class == "farm"


class TestBuiltinsAndProbing:
    def test_closed_forms(self):
        allow = compile_policy(AllowAll())
        deny = compile_policy(DefaultDeny())
        assert allow.exact and deny.exact
        assert {cell.verdict for cell in allow.outcomes} == {"FORWARD"}
        assert {cell.verdict for cell in deny.outcomes} == {"DROP"}

    def test_reflect_all_targets_farm(self):
        model = compile_policy(ReflectAll())
        assert model.exact
        assert {cell.verdict for cell in model.outcomes} == {"REFLECT"}
        assert all(cell.target_class == "farm" for cell in model.outcomes)

    def test_opaque_policy_probed_inexact(self):
        class PortParity(ContainmentPolicy):
            policy_name = "PortParity"

            def decide(self, ctx):
                verdict = (Verdict.FORWARD if ctx.flow.resp_port % 2
                           else Verdict.DROP)
                return ContainmentDecision(verdict, policy=self.policy_name)

        model = compile_policy(PortParity())
        assert not model.exact
        assert all(not cell.exact for cell in model.outcomes)
        verdicts = {cell.verdict for cell in model.outcomes}
        assert verdicts == {"FORWARD", "DROP"}


class TestOverlays:
    def test_link_faults_always_window(self):
        plan = FaultPlan([{"kind": "shim_partition",
                           "start": 20.0, "end": 50.0}])
        windows = plan.verdict_outage_windows("sub", server_count=3)
        assert windows == [{"start": 20.0, "end": 50.0,
                            "kind": "shim_partition"}]

    def test_single_server_crash_with_standby_opens_no_window(self):
        plan = FaultPlan([{"kind": "cs_crash", "at": 30.0}])
        assert plan.verdict_outage_windows("sub", server_count=2) == []

    def test_crash_of_every_server_opens_window(self):
        plan = FaultPlan([
            {"kind": "cs_crash", "at": 30.0, "restore_after": 40.0},
            {"kind": "cs_crash", "at": 25.0, "server": 1},
        ])
        windows = plan.verdict_outage_windows("sub", server_count=2)
        assert windows == [{"start": 30.0, "end": 70.0,
                            "kind": "cs_crash"}]

    def test_other_subfarm_faults_ignored(self):
        plan = FaultPlan([{"kind": "shim_partition", "subfarm": "other",
                           "start": 0.0, "end": 10.0}])
        assert plan.verdict_outage_windows("sub") == []


class TestFarmCompilation:
    def _farm(self, seed=7, policy=None, **config):
        farm = Farm(FarmConfig(seed=seed, **config))
        sub = farm.create_subfarm("m")
        sub.set_default_policy(policy or AllowAll())
        farm.run(until=1.0)
        return farm

    def test_model_digest_stable_across_runs(self):
        a = compile_farm(self._farm())
        b = compile_farm(self._farm())
        assert a.digest() == b.digest()

    def test_model_digest_tracks_policy(self):
        a = compile_farm(self._farm())
        b = compile_farm(self._farm(policy=DefaultDeny()))
        assert a.digest() != b.digest()

    def test_overlays_only_with_resilience(self):
        plan = {"specs": [{"kind": "shim_partition",
                           "start": 5.0, "end": 9.0}]}
        plain = compile_farm(self._farm(fault_plan=plan))
        assert plain.subfarms[0].overlays == []
        resilient = compile_farm(self._farm(
            fault_plan=plan, verdict_deadline=5.0))
        assert resilient.subfarms[0].overlays
        assert resilient.subfarms[0].pending_policy is not None
