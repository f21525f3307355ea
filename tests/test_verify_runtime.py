"""Runtime cross-validation and the ``python -m repro.verify`` CLI:
journal coverage, flow-table coverage, violation provenance, and the
verify-quick gate's building blocks.
"""

from __future__ import annotations

import json

import pytest

from repro.core.policy import AllowAll, DefaultDeny
from repro.farm import Farm, FarmConfig
from repro.verify import (
    certify_farm,
    check_farm,
    check_flowtables,
    check_journal,
    render_violations,
)
from repro.verify.__main__ import main as verify_main

pytestmark = pytest.mark.integration

_WORLD_IP = "203.0.113.80"
_WORLD_PORT = 80


def _echo(host) -> None:
    def on_accept(conn):
        conn.on_data = lambda c, data: c.send(data)
        conn.on_remote_close = lambda c: c.close()

    host.tcp.listen(_WORLD_PORT, on_accept)


def _talker(host) -> None:
    from repro.net.addresses import IPv4Address
    from repro.services.dhcp import DhcpClient

    def configured(h):
        def talk():
            conn = h.tcp.connect(IPv4Address(_WORLD_IP), _WORLD_PORT)
            conn.on_established = lambda c: c.send(b"hello world")
            conn.on_data = lambda c, d: c.close()

        h.sim.schedule(1.0, talk, label="talk")

    DhcpClient(host, on_configured=configured).start()


def _active_farm(policy=None, seed=9, journal=True, **config):
    """A farm whose inmate actually reaches the world, so runtime
    evidence (journal events, flow-table entries) exists."""
    farm = Farm(FarmConfig(seed=seed, journal=journal, **config))
    _echo(farm.add_external_host("echo", _WORLD_IP))
    sub = farm.create_subfarm("live")
    sub.set_default_policy(policy or AllowAll())
    sub.create_inmate(image_factory=lambda host: _talker(host))
    # Inmate boot + DHCP completes around t=31; run past it so the
    # talker's flow actually happens.
    farm.run(until=60.0)
    return farm


class TestJournalCoverage:
    def test_matching_certificate_covers_run(self):
        farm = _active_farm()
        cert = certify_farm(farm, label="live")
        report = check_journal(cert, farm.journal_snapshot())
        assert report.ok
        assert report.checked > 0
        assert report.covered == report.checked

    def test_mismatched_certificate_flags_violations(self):
        # Certify a deny-everything farm, then check it against the
        # journal of a farm that forwarded to the world: every
        # world-reaching verdict is uncovered.
        deny = Farm(FarmConfig(seed=9))
        deny_sub = deny.create_subfarm("live")
        deny_sub.set_default_policy(DefaultDeny())
        deny.run(until=1.0)
        deny_cert = certify_farm(deny, label="deny")
        assert deny_cert["grants"] == []

        live = _active_farm()
        report = check_journal(deny_cert, live.journal_snapshot())
        assert not report.ok
        violation = report.violations[0]
        assert violation["source"] == "journal"
        assert violation["verdict"] == "FORWARD"
        assert violation["proto"] == "tcp"
        assert violation["destination"] == _WORLD_IP
        assert violation["vlan"] is not None

    def test_farm_internal_flows_not_checked(self):
        # A run with no world destinations produces no world-reaching
        # observations, so even an empty grant table is consistent.
        farm = Farm(FarmConfig(seed=5, journal=True))
        sub = farm.create_subfarm("idle")
        sub.set_default_policy(AllowAll())
        sub.create_inmate(image_factory=lambda host: None)
        farm.run(until=40.0)
        cert = certify_farm(farm, label="idle")
        report = check_journal(cert, farm.journal_snapshot())
        assert report.ok

    def test_violation_rendering_includes_provenance(self):
        deny = Farm(FarmConfig(seed=9))
        deny_sub = deny.create_subfarm("live")
        deny_sub.set_default_policy(DefaultDeny())
        deny.run(until=1.0)
        deny_cert = certify_farm(deny, label="deny")
        live = _active_farm()
        snapshot = live.journal_snapshot()
        report = check_journal(deny_cert, snapshot)
        text = render_violations(report, snapshot)
        assert "coverage violation" in text
        assert "not covered by any certificate grant" in text
        # The uncovered flow renders its causal chain, like obs why.
        assert "flow.created" in text


class TestFlowtableCoverage:
    def test_installed_upstream_entries_covered(self):
        farm = _active_farm()
        cert = certify_farm(farm, label="fast")
        report = check_flowtables(cert, farm)
        assert report.ok

    def test_uncovered_entry_reported_with_port(self):
        farm = _active_farm()
        deny = Farm(FarmConfig(seed=9))
        deny_sub = deny.create_subfarm("live")
        deny_sub.set_default_policy(DefaultDeny())
        deny.run(until=1.0)
        deny_cert = certify_farm(deny, label="deny")
        report = check_flowtables(deny_cert, farm)
        if report.checked:  # fastpath installed at least one entry
            assert not report.ok
            violation = report.violations[0]
            assert violation["source"] == "flowtable"
            assert violation["dport"] == _WORLD_PORT
            assert violation["dst"] == _WORLD_IP

    def test_drop_rules_are_not_world_grants(self):
        # A DROP flow's installed rule has no egress: it swallows what
        # it matches, emits nothing upstream and is dumped as such.
        from repro.core.dsl import DslPolicy

        farm = _active_farm(DslPolicy(
            f"outbound port {_WORLD_PORT}/tcp -> drop\n"
            "default -> forward\n"))
        table = farm.subfarms["live"].router.flowtable
        assert [(entry["action"], entry["emit"])
                for entry in table.snapshot()] == [("drop-tcp", "none")]
        assert table.world_grants() == []
        report = check_farm(certify_farm(farm, label="drop"), farm)
        assert report.ok
        assert report.checked == 0

    def test_check_farm_combines_both_passes(self):
        farm = _active_farm()
        cert = certify_farm(farm, label="combined")
        report = check_farm(cert, farm)
        assert report.ok
        assert report.checked >= 1


class TestCli:
    def test_certify_json_contained(self, capsys):
        assert verify_main(["certify", "--json", "--duration", "60",
                            "--label", "cli"]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["schema"] == "gq.verify/2"
        assert cert["result"] == "CONTAINED"
        assert cert["label"] == "cli"

    def test_certify_scenario_and_check(self, capsys):
        assert verify_main(["certify", "--scenario", "cs_crash",
                            "--duration", "60"]) == 0
        out = capsys.readouterr().out
        assert "isolation certificate [CONTAINED]" in out
        assert verify_main(["check", "--scenario", "cs_crash",
                            "--duration", "60"]) == 0
        assert "coverage ok" in capsys.readouterr().out

    def test_certificate_written_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "cert.json"
        assert verify_main(["certify", "--duration", "60",
                            "--out", str(out_path)]) == 0
        cert = json.loads(out_path.read_text())
        from repro.verify import verify_digest

        assert verify_digest(cert)


class TestReportSection:
    def test_report_renders_certificate_section(self):
        from repro.reporting.report import ActivityReport, render_report

        farm = _active_farm()
        cert = certify_farm(farm, label="report")
        coverage = check_farm(cert, farm)
        report = ActivityReport.from_subfarms(
            [farm.subfarms["live"]])
        report.attach_certificate(cert, coverage=coverage.to_dict())
        rendered = render_report(report)
        assert "Isolation certificate" in rendered
        assert "Result: CONTAINED" in rendered
        assert cert["digest"] in rendered
        assert "World grants" in rendered
        assert "Runtime coverage" in rendered

    def test_report_without_certificate_unchanged(self):
        from repro.reporting.report import ActivityReport, render_report

        farm = _active_farm()
        report = ActivityReport.from_subfarms(
            [farm.subfarms["live"]])
        assert "Isolation certificate" not in render_report(report)
