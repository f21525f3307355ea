"""The policy DSL (§8 future work) and checking one policy against
the surface it publishes: its cells (``compile_policy``), invariants
as predicates over them, and a live farm judged by ``certify_farm`` +
``check_wire``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.core.dsl import DslError, DslPolicy, parse_program
from repro.core.policy import AllowAll, DefaultDeny
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.policies.spambot import GrumPolicy
from repro.verify import certify_farm, check_wire, compile_policy
from tests.test_policy_decisions import DEFAULT_CONTENT, SERVICE_SETS, context

GRUM_PROGRAM = """
# Grum containment, as a policy program
outbound port 25/tcp                          -> reflect smtp_sink
outbound port 80/tcp content ~ "GET /grum/"   -> forward
default                                       -> reflect sink
"""
SERVICES = SERVICE_SETS["sink+smtp"]

# The invariants and the live-farm harness are the example's own, so
# the example and these tests cannot drift apart.
_spec = importlib.util.spec_from_file_location(
    "policy_language",
    Path(__file__).resolve().parents[1] / "examples" / "policy_language.py")
POLICY_LANGUAGE = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(POLICY_LANGUAGE)


def _verdicts_at(policy, direction, port, proto=PROTO_TCP):
    """``{content class: verdict}`` of the cells covering one port."""
    return {cell.content: cell.verdict
            for cell in compile_policy(policy).cells(direction, proto)
            if cell.port_lo <= port <= cell.port_hi}


def _violations(policy):
    return sorted({name for name, _cell in POLICY_LANGUAGE.violations(
        compile_policy(policy).outcomes)})


class TestDslParsing:
    def test_grum_program_parses(self):
        rules, default = parse_program(GRUM_PROGRAM)
        assert len(rules) == 2
        assert rules[0].port_lo == 25 and rules[0].action.kind == "reflect"
        assert rules[1].content is not None
        assert default.kind == "reflect"

    def test_port_ranges(self):
        rules, _ = parse_program(
            "port 6660-6669/tcp -> drop\ndefault -> forward\n")
        assert rules[0].port_lo == 6660 and rules[0].port_hi == 6669

    def test_redirect_with_port(self):
        rules, _ = parse_program(
            "port 80/tcp -> redirect 10.3.0.9:8080\ndefault -> drop\n")
        action = rules[0].action
        assert str(action.target_ip) == "10.3.0.9"
        assert action.target_port == 8080

    def test_limit_rate(self):
        rules, _ = parse_program(
            "port 8080/tcp -> limit 2500\ndefault -> drop\n")
        assert rules[0].action.rate == 2500.0

    def test_regex_content(self):
        rules, _ = parse_program(
            'port 80/tcp content =~ "GET /(a|b)/" -> forward\n'
            "default -> drop\n")
        assert rules[0].content.matches(b"GET /a/x HTTP/1.1")
        assert not rules[0].content.matches(b"GET /c/x HTTP/1.1")

    def test_hash_inside_a_quoted_pattern_is_not_a_comment(self):
        # An IRC channel is the C&C pattern a policy wants to match.
        rules, _ = parse_program(
            'port 6667/tcp content ~ "JOIN #botnet" -> forward  # irc\n'
            "default -> drop\n")
        assert rules[0].content.matches(b"JOIN #botnet\r\n")
        assert not rules[0].content.matches(b"JOIN #other\r\n")
        assert rules[0].line.endswith("-> forward")

    def test_arrow_inside_a_quoted_pattern_does_not_split(self):
        rules, _ = parse_program(
            'port 80/tcp content =~ "a->b" -> forward\ndefault -> drop\n')
        assert rules[0].action.kind == "forward"
        assert rules[0].content.matches(b"a->b")
        assert not rules[0].content.matches(b"a-b")

    def test_missing_default_rejected(self):
        with pytest.raises(DslError) as exc:
            parse_program("port 80/tcp -> forward\n")
        assert exc.value.reason == "missing-default"

    def test_empty_program_rejected(self):
        """An empty policy must raise, not silently deny (or allow)."""
        with pytest.raises(DslError) as exc:
            parse_program("")
        assert exc.value.reason == "missing-default"
        with pytest.raises(DslError):
            parse_program("# comments only\n\n")

    def test_duplicate_default_rejected(self):
        with pytest.raises(DslError) as exc:
            parse_program("default -> drop\ndefault -> forward\n")
        assert exc.value.reason == "duplicate-default"
        assert exc.value.line_number == 2

    def test_unknown_action_rejected(self):
        with pytest.raises(DslError) as exc:
            parse_program("port 80/tcp -> explode\ndefault -> drop\n")
        assert exc.value.reason == "unknown-action"

    def test_bad_port_spec_rejected(self):
        with pytest.raises(DslError) as exc:
            parse_program("port eighty/tcp -> drop\ndefault -> drop\n")
        assert exc.value.reason == "bad-port-spec"
        assert exc.value.line_number == 1

    def test_shadowed_rule_rejected(self):
        """A rule fully covered by an earlier rule can never fire —
        usually a mis-ordered policy whose author expected the narrow
        rule to win.  The parser rejects it outright."""
        with pytest.raises(DslError) as exc:
            parse_program(
                "port 1-65535/tcp -> drop\n"
                "port 80/tcp -> forward\n"
                "default -> drop\n")
        assert exc.value.reason == "shadowed-rule"
        assert exc.value.line_number == 2
        assert "port 80/tcp" in exc.value.line

    def test_shadowed_content_rule_rejected(self):
        # An endpoint-only rule shadows any later content rule on the
        # same port: decide() returns before content is ever consulted.
        with pytest.raises(DslError) as exc:
            parse_program(
                "port 80/tcp -> forward\n"
                'port 80/tcp content ~ "GET /cnc/" -> drop\n'
                "default -> drop\n")
        assert exc.value.reason == "shadowed-rule"

    def test_rule_shadowed_by_a_union_rejected(self):
        # No single earlier rule covers 85-95, two do between them:
        # shadowing is reachability in the decision table.
        with pytest.raises(DslError) as exc:
            parse_program(
                "port 80-90/tcp -> drop\n"
                "port 91-100/tcp -> drop\n"
                "port 85-95/tcp -> forward\n"
                "default -> drop\n")
        assert exc.value.reason == "shadowed-rule"
        assert exc.value.line_number == 3
        assert "port 85-95/tcp" in exc.value.line

    @pytest.mark.parametrize("spec", ["90-80/tcp", "70000/tcp",
                                      "80-65536/udp"])
    def test_empty_or_out_of_range_port_spec_rejected(self, spec):
        # Such a rule matches no flow; it is a typo, not a shadowed rule.
        with pytest.raises(DslError) as exc:
            parse_program(f"port {spec} -> drop\ndefault -> drop\n")
        assert exc.value.reason == "bad-port-spec"
        assert exc.value.line_number == 1

    def test_content_spec_without_a_pattern_rejected(self):
        with pytest.raises(DslError) as exc:
            parse_program("port 80/tcp content ~ -> drop\ndefault -> drop\n")
        assert exc.value.reason == "bad-content-spec"

    def test_partial_overlap_allowed(self):
        # Overlap without full coverage is legitimate layering.
        rules, _ = parse_program(
            "port 80-100/tcp -> drop\n"
            "port 80-443/tcp -> forward\n"
            "default -> drop\n")
        assert len(rules) == 2

    def test_narrow_before_wide_allowed(self):
        # The idiomatic order — specific rule first — must still parse.
        rules, _ = parse_program(
            "port 80/tcp -> forward\n"
            "port 1-65535/tcp -> drop\n"
            "default -> drop\n")
        assert len(rules) == 2


class TestDslSemantics:
    def test_first_match_wins(self):
        policy = DslPolicy(
            "port 80-100/tcp -> drop\nport 80-443/tcp -> forward\n"
            "default -> forward\n")
        assert _verdicts_at(policy, "outbound", 80) == {"*": "DROP"}
        assert _verdicts_at(policy, "outbound", 443) == {"*": "FORWARD"}

    def test_grum_program_matches_handwritten_policy(self):
        """The DSL program and the Python GrumPolicy publish the same
        outbound verdicts at every port either one's cells start or
        end on, for the content cell and the fallback alike
        (autoinfection's REWRITE is out of DSL scope), and both let
        Grum's C&C request out."""
        def shape(model, proto, port):
            """(fallback?, verdict) of each cell covering the port."""
            return sorted((cell.content in ("*", "other"), cell.verdict)
                          for cell in model.cells("outbound", proto)
                          if cell.port_lo <= port <= cell.port_hi
                          and cell.verdict != "REWRITE")

        dsl = DslPolicy(GRUM_PROGRAM, services=SERVICES)
        python = GrumPolicy(services=SERVICES)
        dsl_model, python_model = compile_policy(dsl), compile_policy(python)
        for proto in (PROTO_TCP, PROTO_UDP):
            edges = {edge for model in (dsl_model, python_model)
                     for cell in model.cells("outbound", proto)
                     for edge in (cell.port_lo, cell.port_hi)}
            for port in sorted(edges):
                assert shape(dsl_model, proto, port) == shape(
                    python_model, proto, port), (proto, port)
        for policy in (dsl, python):
            ctx = context(SERVICES, "outbound", PROTO_TCP, 80, None, 2)
            assert policy.decide(ctx) is None
            decision = policy.decide_content(ctx, DEFAULT_CONTENT["grum-cnc"])
            assert decision.verdict.label == "FORWARD"

    def test_direction_guards(self):
        policy = DslPolicy(
            "inbound any -> forward\ndefault -> drop\n")
        assert _verdicts_at(policy, "inbound", 80) == {"*": "FORWARD"}
        assert _verdicts_at(policy, "outbound", 80) == {"*": "DROP"}

    def test_coverage_counts_hits(self):
        policy = DslPolicy(GRUM_PROGRAM, services=SERVICES)
        policy.decide(context(SERVICES, "outbound", PROTO_TCP, 25, None, 2))
        assert [hits for _line, hits in policy.coverage()] == [1, 0]


class TestSurfaceEnumeration:
    def test_default_deny_forwards_nothing(self):
        cells = compile_policy(DefaultDeny(services=SERVICES)).outcomes
        assert cells and not any(POLICY_LANGUAGE.grants_world(cell) for cell in cells)

    def test_allow_all_forwards_everything(self):
        cells = compile_policy(AllowAll(services=SERVICES)).outcomes
        assert cells and all(POLICY_LANGUAGE.grants_world(cell) for cell in cells)

    def test_surface_dimensions(self):
        """Outbound TCP splits into the atoms the rules' ports cut, port
        80 into the prefix and what it misses; every other (direction,
        protocol) is one atom."""
        model = compile_policy(DslPolicy(GRUM_PROGRAM, services=SERVICES))
        assert [(cell.port_lo, cell.port_hi, cell.content, cell.verdict)
                for cell in model.cells("outbound", PROTO_TCP)] == [
            (0, 24, "*", "REFLECT"), (25, 25, "*", "REFLECT"),
            (26, 79, "*", "REFLECT"),
            (80, 80, "prefix:'GET /grum/'", "FORWARD"),
            (80, 80, "other", "REFLECT"), (81, 65535, "*", "REFLECT")]
        assert len(model.outcomes) == 6 + 3


class TestInvariants:
    def test_allow_all_violates_smtp_escape(self):
        assert _violations(AllowAll(services=SERVICES)) == [
            "no-blanket-forward", "no-smtp-escape"]

    def test_grum_policy_is_clean(self):
        assert _violations(GrumPolicy(services=SERVICES)) == []

    def test_dsl_grum_program_is_clean(self):
        assert _violations(DslPolicy(GRUM_PROGRAM, services=SERVICES)) == []


def _sink_heard(sub):
    """``(dst_port, payload)`` of every flow the catch-all sink took,
    sorted."""
    return sorted((record.dst_port, bytes(record.payload))
                  for record in sub.sinks["sink"].records)


def _assert_contained(farm):
    """Certify and check ``farm``; returns the coverage report, whose
    ``checked`` counts one flow-log line per tuple forwarded onto the
    wire (a dropped or reflected flow puts nothing there)."""
    certificate = certify_farm(farm, label="live")
    report = check_wire(certificate, farm)
    assert certificate["result"] == "CONTAINED"
    assert report.violations == []
    assert report.covered == report.checked
    return report


@pytest.mark.integration
class TestLiveEnforcement:
    def test_dsl_policy_enforced_without_mismatch(self):
        plan = [(port, DEFAULT_CONTENT[tag]) for port in (25, 80, 443, 6667)
                for tag in ("http-get", "grum-cnc", "smtp-dialogue")]
        farm, sub, heard = POLICY_LANGUAGE.run_flows(
            DslPolicy(GRUM_PROGRAM, services=SERVICES), plan)
        assert _assert_contained(farm).checked == 1
        assert sub.containment_server.verdict_counts == {
            "REFLECT": 11, "FORWARD": 1}
        assert heard == [DEFAULT_CONTENT["grum-cnc"]]
        assert sub.sinks["smtp_sink"].sessions_accepted == 3
        # The other eight reflected flows land at the catch-all sink.
        assert _sink_heard(sub) == sorted(
            (port, payload) for port, payload in plan
            if port != 25
            and (port, payload) != (80, DEFAULT_CONTENT["grum-cnc"]))

    def test_content_rule_ahead_of_its_fallback_rule_is_enforced(self):
        """Whitelist on port 80, blacklist on port 8080: in both the
        endpoint-only rule is the atom's fallback, not a pre-emption —
        the whitelisted request reaches the witness, the blacklisted
        one never does, and everything else follows the fallback."""
        program = (
            'port 80/tcp content ~ "GET /grum/" -> forward\n'
            "port 80/tcp -> reflect sink\n"
            'port 8080/tcp content ~ "GET /evil" -> drop\n'
            "port 8080/tcp -> forward\n"
            "default -> drop\n")
        content = [DEFAULT_CONTENT["grum-cnc"],
                   b"GET /evil.exe HTTP/1.1\r\n\r\n",
                   DEFAULT_CONTENT["http-get"]]
        farm, sub, heard = POLICY_LANGUAGE.run_flows(
            DslPolicy(program, services=SERVICES),
            [(port, payload) for port in (80, 8080) for payload in content])
        assert _assert_contained(farm).checked == 3
        # 80: grum forwarded, two reflected; 8080: evil dropped, two
        # forwarded.
        assert sub.containment_server.verdict_counts == {
            "FORWARD": 3, "REFLECT": 2, "DROP": 1}
        assert sorted(heard) == sorted(
            [content[0], content[0], content[2]])
        assert _sink_heard(sub) == sorted(
            [(80, content[1]), (80, content[2])])

    def test_forward_policy_reaches_witness(self):
        plan = [(port, DEFAULT_CONTENT["http-get"])
                for port in (25, 80, 443, 6667)]
        farm, sub, heard = POLICY_LANGUAGE.run_flows(AllowAll(), plan)
        assert _assert_contained(farm).checked == len(plan)
        assert heard == [payload for _port, payload in plan]
        assert _sink_heard(sub) == []
