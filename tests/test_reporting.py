"""Reporting: shim analyzer, SMTP analyzer, Figure 7 report."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.shim import RequestShim, ResponseShim
from repro.core.verdicts import ContainmentDecision, Verdict
from repro.experiments.figure7 import build_botfarm, run_figure7
from repro.net.addresses import IPv4Address
from repro.net.flow import FiveTuple
from repro.net.packet import PROTO_TCP
from repro.reporting.analyzer import ShimAnalyzer
from repro.reporting.report import render_report

pytestmark = pytest.mark.integration


@pytest.fixture(scope="module")
def figure7():
    return run_figure7(duration=600, seed=7)


class TestShimWireFormat:
    def flow(self):
        return FiveTuple(IPv4Address("10.0.0.23"), 1234,
                         IPv4Address("192.150.187.12"), 80, PROTO_TCP)

    def test_request_shim_is_exactly_24_bytes(self):
        shim = RequestShim(self.flow(), vlan_id=12, nonce_port=42)
        assert len(shim.to_bytes()) == 24

    def test_request_round_trip(self):
        shim = RequestShim(self.flow(), vlan_id=12, nonce_port=42)
        parsed = RequestShim.from_bytes(shim.to_bytes())
        assert parsed.flow == self.flow()
        assert parsed.vlan_id == 12
        assert parsed.nonce_port == 42

    def test_response_shim_minimum_56_bytes(self):
        response = ResponseShim(self.flow(), Verdict.FORWARD)
        assert len(response.to_bytes()) == 56

    def test_response_with_annotation_longer(self):
        response = ResponseShim(self.flow(), Verdict.REWRITE,
                                policy="Rustock", annotation="C&C filtering")
        raw = response.to_bytes()
        assert len(raw) > 56
        parsed = ResponseShim.from_bytes(raw)
        assert parsed.policy == "Rustock"
        assert parsed.annotation == "C&C filtering"
        assert parsed.verdict == Verdict.REWRITE

    def test_rate_survives_round_trip(self):
        response = ResponseShim(self.flow(), Verdict.LIMIT, rate=1234.5)
        parsed = ResponseShim.from_bytes(response.to_bytes())
        assert parsed.rate == 1234.5

    def test_policy_tag_capped_at_32_bytes(self):
        response = ResponseShim(self.flow(), Verdict.DROP,
                                policy="X" * 100)
        parsed = ResponseShim.from_bytes(response.to_bytes())
        assert parsed.policy == "X" * 32

    def test_decision_round_trip_redirect_carries_target(self):
        decision = ContainmentDecision.redirect(
            IPv4Address("10.3.0.9"), 2526, policy="Test")
        shim = ResponseShim.from_decision(self.flow(), decision)
        rebuilt = ResponseShim.from_bytes(shim.to_bytes()).to_decision(
            self.flow())
        assert rebuilt.verdict == Verdict.REDIRECT
        assert str(rebuilt.target_ip) == "10.3.0.9"
        assert rebuilt.target_port == 2526


class TestShimAnalyzer:
    def test_counts_match_the_flow_log(self):
        """§6.5: the report lets an operator verify that the gateway
        enforces the decisions it shows.  Per (VLAN, verdict), what the
        analyzer counts from the trace equals the gateway's flow log."""
        farm, sub, _world, _samples = build_botfarm(seed=7,
                                                    send_interval=4.0)
        shims = ShimAnalyzer.streaming(sub.router.trace)
        farm.run(until=1200)
        from_trace = {(vlan, verdict): sum(bucket.values())
                      for vlan, groups in shims.groups.items()
                      for verdict, bucket in groups.items()}
        from_log = Counter((line.vlan, line.verdict)
                           for line in sub.router.flow_log)
        assert from_trace == from_log
        # Every inmate under each of its three verdicts, nothing left
        # unmatched or unparsed.
        assert len(from_trace) == 12
        assert (shims._pending, shims.parse_errors) == ({}, 0)
        # The trace-derived totals must reflect real activity.
        totals = shims.verdict_counts()
        assert totals.get("REFLECT", 0) > 100
        assert totals.get("FORWARD", 0) >= 4
        assert totals.get("REWRITE", 0) >= 4

    def test_every_inmate_appears(self, figure7):
        inmates = figure7.report.subfarms["Botfarm"]
        assert sorted(inmates) == [16, 17, 18, 19]

    def test_policies_attributed_from_shims(self, figure7):
        inmates = figure7.report.subfarms["Botfarm"]
        assert inmates[16].policy == "Rustock"
        assert inmates[18].policy == "Grum"


class TestFigure7Shape:
    def test_reflect_dominates_forward(self, figure7):
        totals = figure7.verdict_totals
        assert totals["REFLECT"] > 10 * totals["FORWARD"]

    def test_smtp_sessions_exceed_data_transfers_with_drops(self, figure7):
        # The sink drops a fraction of connections, so sessions
        # attempted > messages harvested (the Figure 7 caption note).
        assert figure7.smtp_sessions > figure7.smtp_data_transfers
        assert figure7.sink_sessions_dropped > 0

    def test_nothing_delivered_outside(self, figure7):
        assert figure7.spam_delivered_outside == 0

    def test_rendered_report_structure(self, figure7):
        text = figure7.rendered
        assert "Subfarm 'Botfarm'" in text
        assert "Rustock [" in text and "Grum [" in text
        assert "FORWARD" in text and "REFLECT" in text and "REWRITE" in text
        assert "full SMTP containment" in text
        assert "C&C filtering" in text          # Rustock beacons
        assert "autoinfection" in text
        assert "SMTP sessions" in text
        assert "SMTP DATA transfers" in text
        assert "clean" in text                  # blacklist checks

    def test_autoinfection_rows_carry_md5(self, figure7):
        assert f"autoinfection {figure7.sample_md5s['rustock']}" \
            in figure7.rendered
        assert f"autoinfection {figure7.sample_md5s['grum']}" \
            in figure7.rendered

    def test_no_forward_verdicts_for_smtp(self, figure7):
        """Containment verification via the report, as §6.5 intends:
        port 25 must never appear under FORWARD."""
        for inmates in figure7.report.subfarms.values():
            for activity in inmates.values():
                for (annotation, target, port) in activity.groups.get(
                    "FORWARD", {}
                ):
                    assert port != 25
