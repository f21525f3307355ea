"""The isolation-model compiler: published surfaces (the table a DSL
program or a policy class executes), concolic probing of hand-written
overrides, fault-plan overlays, digest identity, and the Figure 6
Botfarm's certificate.
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
from repro.net.addresses import IPv4Address
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.verify import certify_farm
from repro.verify.model import (
    compile_farm,
    compile_policy,
    probe_policy,
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

    def test_hand_written_override_publishes_nothing_and_is_probed(self):
        """Overriding either half of the walker by hand, anywhere below
        a publishing class: no surface, ``exact: false`` and the probed
        model, whatever rules the class also inherits."""
        from repro.analysis.policy_testing import DEFAULT_PORTS
        from repro.policies.spambot import Grum

        class ByHand(ContainmentPolicy):
            def decide(self, ctx):
                if ctx.flow.resp_port == 80 and ctx.flow.proto == PROTO_TCP:
                    return self.forward(ctx, annotation="by hand")
                return self.deny(ctx)

        class ContentByHand(Grum):
            def decide_content(self, ctx, data):
                return self.forward(ctx) if data else None

        sinks = {"sink": (IPv4Address("10.3.0.9"), 0)}
        for policy in (ByHand(), ContentByHand(services=sinks)):
            assert policy.surface() is None
            model = compile_policy(policy)
            assert not model.exact
            assert model.description["kind"] == "opaque"
            assert model.to_dict() == probe_policy(policy).to_dict()
        by_hand = compile_policy(ByHand())
        # One endpoint cell per probe port plus "every other port".
        assert len(by_hand.outcomes) == 2 * 2 * (len(DEFAULT_PORTS) + 1)
        assert [_cell_for(by_hand, "outbound", proto, 80).verdict
                for proto in (PROTO_TCP, PROTO_UDP)] == ["FORWARD", "DROP"]

    def test_an_alias_or_a_tracers_wrapper_is_still_the_walker(self):
        """The ledger's tracer wraps ``AllowAll.decide`` and friends
        through the class ``__dict__`` (docs/PERFORMANCE.md, "Frozen
        names"); a wrapped walker publishes what it did unwrapped."""
        for owner in (AllowAll, DslPolicy):
            assert {"decide", "decide_content"} <= set(vars(owner))
        published = compile_policy(AllowAll()).to_dict()
        originals = {name: vars(AllowAll)[name]
                     for name in ("decide", "decide_content")}
        try:
            for name, original in originals.items():
                def span(*args, _fn=original, **kwargs):
                    return _fn(*args, **kwargs)
                span.__wrapped__ = original
                setattr(AllowAll, name, span)
            assert AllowAll().surface() is not None
            assert compile_policy(AllowAll()).to_dict() == published
        finally:
            for name, original in originals.items():
                setattr(AllowAll, name, original)


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


class TestFigure6Botfarm:
    """The flagship deployment certifies exactly: the family policies
    publish the tables they execute, auto-infection rule included."""

    def test_certificate_is_exact_and_grants_four_rule_shapes(self):
        from repro.experiments.figure7 import build_botfarm

        farm, sub = build_botfarm()[:2]
        assert {"sink", "smtp_sink"} <= set(sub.services)
        cert = certify_farm(farm, label="botfarm")
        assert cert["result"] == "CONTAINED"
        assert cert["exact"] is True

        beacon = "regex:'^GET /stat\\\\?r=\\\\d+'"
        grum = "regex:'^GET /grum/spm\\\\?id=[0-9a-f]+ HTTP/1\\\\.[01]'"
        shapes = {}
        for grant in cert["grants"]:
            assert grant["exact"] and grant["via"] == "policy"
            (port,) = set(grant["ports"])
            shape = (grant["verdict"], port, grant["content"], grant["vlan"])
            shapes.setdefault(shape, set()).add(grant["proto"])
        # The infection rule never asked the protocol (the decision
        # corpus records its UDP answers too); the family rules are TCP.
        assert shapes == {
            ("FORWARD", 443, "*", "16-17"): {"tcp"},
            ("REWRITE", 80, beacon, "16-17"): {"tcp"},
            ("FORWARD", 80, grum, "18-19"): {"tcp"},
            ("REWRITE", 6543, "dst:10.9.8.7", "16-17"): {"tcp", "udp"},
            ("REWRITE", 6543, "dst:10.9.8.7", "18-19"): {"tcp", "udp"},
        }
        assert not any(lo <= 25 <= hi for lo, hi in
                       (grant["ports"] for grant in cert["grants"]))
