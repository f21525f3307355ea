"""The policy DSL (§8 future work) and the verification tool-chain."""

from __future__ import annotations

import pytest

from repro.analysis.policy_testing import (
    DEFAULT_CONTENT,
    check_invariants,
    enumerate_surface,
    generate_probes,
    verify_enforcement,
)
from repro.core.dsl import DslError, DslPolicy, parse_program
from repro.core.policy import AllowAll, DefaultDeny
from repro.core.verdicts import Verdict
from repro.policies.spambot import GrumPolicy

GRUM_PROGRAM = """
# Grum containment, as a policy program
outbound port 25/tcp                          -> reflect smtp_sink
outbound port 80/tcp content ~ "GET /grum/"   -> forward
default                                       -> reflect sink
"""


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
        surface = enumerate_surface(policy)
        matrix = surface.verdict_matrix()
        assert matrix[("outbound", 80, "http-get")] == "DROP"
        assert matrix[("outbound", 443, "http-get")] == "FORWARD"

    def test_grum_program_matches_handwritten_policy(self):
        """The DSL program and the Python GrumPolicy must agree on the
        full probe surface (modulo annotation details)."""
        dsl_surface = enumerate_surface(DslPolicy(GRUM_PROGRAM))
        py_surface = enumerate_surface(GrumPolicy())
        dsl_matrix = dsl_surface.verdict_matrix()
        py_matrix = py_surface.verdict_matrix()
        for key, py_verdict in py_matrix.items():
            direction, port, tag = key
            if direction == "inbound":
                continue  # handwritten policy treats inbound via autoinfect path
            if tag == "empty":
                continue  # undecidable without content either way
            if py_verdict == "REWRITE":
                continue  # autoinfection specifics are out of DSL scope
            assert dsl_matrix.get(key) == py_verdict, key

    def test_direction_guards(self):
        policy = DslPolicy(
            "inbound any -> forward\ndefault -> drop\n")
        surface = enumerate_surface(policy)
        matrix = surface.verdict_matrix()
        assert matrix[("inbound", 80, "http-get")] == "FORWARD"
        assert matrix[("outbound", 80, "http-get")] == "DROP"

    def test_coverage_counts_hits(self):
        policy = DslPolicy(GRUM_PROGRAM)
        enumerate_surface(policy)
        coverage = dict(policy.coverage())
        assert any(count > 0 for count in coverage.values())


class TestSurfaceEnumeration:
    def test_default_deny_forwards_nothing(self):
        surface = enumerate_surface(DefaultDeny())
        assert surface.forwarded() == []

    def test_allow_all_forwards_everything(self):
        surface = enumerate_surface(AllowAll())
        assert len(surface.forwarded()) == len(surface.outcomes)

    def test_probe_matrix_dimensions(self):
        probes = generate_probes(ports=[25, 80], directions=("outbound",))
        assert len(probes) == 2 * len(DEFAULT_CONTENT)


class TestInvariants:
    def test_allow_all_violates_smtp_escape(self):
        surface = enumerate_surface(AllowAll())
        violations = check_invariants(surface)
        names = {name for name, _outcome, _msg in violations}
        assert "no-smtp-escape" in names
        assert "no-blanket-forward" in names

    def test_grum_policy_is_clean(self):
        surface = enumerate_surface(GrumPolicy())
        assert check_invariants(surface) == []

    def test_dsl_grum_program_is_clean(self):
        surface = enumerate_surface(DslPolicy(GRUM_PROGRAM))
        assert check_invariants(surface) == []


@pytest.mark.integration
class TestLiveEnforcement:
    def test_dsl_policy_enforced_without_mismatch(self):
        summary, mismatches = verify_enforcement(
            lambda: DslPolicy(GRUM_PROGRAM))
        assert mismatches == []
        assert summary["verdicts"].get("REFLECT", 0) > 0

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
        content = {"grum-cnc": DEFAULT_CONTENT["grum-cnc"],
                   "evil": b"GET /evil.exe HTTP/1.1\r\n\r\n",
                   "http-get": DEFAULT_CONTENT["http-get"]}
        summary, mismatches = verify_enforcement(
            lambda: DslPolicy(program), ports=[80, 8080], content=content)
        assert mismatches == []
        # 80: grum forwarded, two reflected; 8080: evil dropped, two
        # forwarded.
        assert summary["verdicts"] == {"FORWARD": 3, "REFLECT": 2, "DROP": 1}
        heard = summary["witness_heard"]
        assert sorted(heard) == sorted(
            [content["grum-cnc"], content["grum-cnc"], content["http-get"]])
        assert not any(data.startswith(b"GET /evil") for data in heard)

    def test_forward_policy_reaches_witness(self):
        summary, mismatches = verify_enforcement(AllowAll)
        assert mismatches == []
        assert summary["witness_ports"], "forwards must reach the witness"
