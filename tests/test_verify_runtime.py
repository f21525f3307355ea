"""Runtime cross-validation and the ``python -m repro.verify`` CLI:
journal coverage, wire coverage, violation provenance, and the
verify-quick gate's building blocks.
"""

from __future__ import annotations

import json

import pytest

from repro.core.policy import AllowAll, DefaultDeny
from repro.farm import Farm, FarmConfig
from repro.verify import (
    certify_farm,
    check_journal,
    check_wire,
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


ACTIVE_UNTIL = 60.0


def _active_farm(policy=None, seed=9, journal=True, image=_talker,
                 run=True, **config):
    """A farm whose inmate actually reaches the world, so runtime
    evidence (journal events, upstream frames) exists; ``run=False``
    builds it unrun."""
    farm = Farm(FarmConfig(seed=seed, journal=journal, **config))
    _echo(farm.add_external_host("echo", _WORLD_IP))
    sub = farm.create_subfarm("live")
    sub.set_default_policy(policy or AllowAll())
    sub.create_inmate(image_factory=image)
    if run:
        # Inmate boot + DHCP completes around t=31; run past it so the
        # talker's flow actually happens.
        farm.run(until=ACTIVE_UNTIL)
    return farm


def _deny_certificate() -> dict:
    """A certificate with no grants at all."""
    deny = Farm(FarmConfig(seed=9))
    deny.create_subfarm("live").set_default_policy(DefaultDeny())
    deny.run(until=1.0)
    certificate = certify_farm(deny, label="deny")
    assert certificate["grants"] == []
    return certificate


class TestJournalCoverage:
    def test_matching_certificate_covers_run(self):
        farm = _active_farm()
        cert = certify_farm(farm, label="live")
        report = check_journal(cert, farm.journal_snapshot())
        assert report.ok
        assert report.checked > 0
        assert report.covered == report.checked

    def test_mismatched_certificate_flags_violations(self):
        # Check a deny-everything certificate against the journal of a
        # farm that forwarded to the world: every world-reaching
        # verdict is uncovered.
        live = _active_farm()
        report = check_journal(_deny_certificate(), live.journal_snapshot())
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

    def test_evicted_destination_is_checked(self):
        # The ring dropped the flow's flow.created: where it went is
        # unknown, so its world-granting verdict is still held to the
        # grants rather than passed as farm-internal.
        snapshot = {"events": [{
            "seq": 70000, "kind": "verdict.applied", "flow": "gone",
            "vlan": 2, "fields": {"verdict": "FORWARD", "proto": "tcp"}}]}
        report = check_journal(_deny_certificate(), snapshot)
        assert report.checked == 1
        assert report.covered == 0
        (violation,) = report.violations
        assert (violation["flow"], violation["vlan"], violation["proto"],
                violation["verdict"]) == ("gone", 2, "tcp", "FORWARD")
        assert violation["destination"] is None
        assert "evicted from the journal" in violation["reason"]

    def test_violation_rendering_includes_provenance(self):
        live = _active_farm()
        snapshot = live.journal_snapshot()
        report = check_journal(_deny_certificate(), snapshot)
        text = render_violations(report, snapshot)
        assert "coverage violation" in text
        assert "not covered by any certificate grant" in text
        # The uncovered flow renders its causal chain, like obs why.
        assert "flow.created" in text


class TestWireCoverage:
    def test_upstream_frames_covered(self):
        farm = _active_farm(journal=False)
        report = check_wire(certify_farm(farm, label="wire"), farm)
        assert report.ok
        assert report.checked == 1

    def test_finished_flow_uncovered_with_port(self):
        # The talker's flow has finished, so its rules are retired and
        # there is no journal: only the wire still shows it left.
        farm = _active_farm(journal=False)
        assert not farm.subfarms["live"].router.flowtable.rules()
        report = check_wire(_deny_certificate(), farm)
        assert report.checked == 1
        assert report.covered == 0
        (violation,) = report.violations
        assert violation["class"] == "uncovered"
        assert violation["source"] == "wire"
        assert violation["verdict"] == "FORWARD"
        assert violation["dport"] == _WORLD_PORT
        assert violation["dst"] == _WORLD_IP

    def test_retargeted_nonce_leg_held_to_the_rewrite_grant(self):
        # A rewriter that sends the flow on to another port: the
        # server's onward leg is on a tuple with no flow-log line of
        # its own, licensed by the REWRITE line with its source.
        from repro.core.policy import Action, ContainmentPolicy, Rewriter

        class Retarget(Rewriter):
            def on_open(self, proxy):
                proxy.connect_out(port=8080)

        class RetargetPolicy(ContainmentPolicy):
            name = "Retarget"
            default = Action("rewrite", "retarget")

            def make_rewriter(self, ctx):
                return Retarget()

        farm = Farm(FarmConfig(seed=9))
        host = farm.add_external_host("echo", _WORLD_IP)
        host.tcp.listen(8080, lambda conn: None)
        sub = farm.create_subfarm("live")
        sub.create_inmate(image_factory=_talker, policy=RetargetPolicy())
        farm.run(until=60.0)
        ports = {rec.five_tuple.resp_port
                 for rec in farm.gateway.upstream_trace.records
                 if rec.point == "upstream-out" and rec.five_tuple}
        assert ports == {8080}
        assert [entry.verdict for entry in sub.router.flow_log] \
            == ["REWRITE"]

        certificate = certify_farm(farm, label="rewrite")
        report = check_wire(certificate, farm)
        assert report.ok
        assert report.checked == report.covered == 1
        (grant,) = {(g["verdict"], tuple(g["ports"]))
                    for g in certificate["grants"] if g["proto"] == "tcp"}
        assert grant == ("REWRITE", (0, 65535))

        (violation,) = check_wire(_deny_certificate(), farm).violations
        assert (violation["class"], violation["verdict"],
                violation["dport"]) == ("uncovered", "REWRITE", 8080)

    def test_drop_farm_puts_nothing_upstream(self):
        # A DROP flow's installed rule has no egress: it swallows what
        # it matches, and nothing reaches the wire to check.
        from repro.core.dsl import DslPolicy

        farm = _active_farm(DslPolicy(
            f"outbound port {_WORLD_PORT}/tcp -> drop\n"
            "default -> forward\n"))
        assert [entry.verdict for entry
                in farm.subfarms["live"].router.flow_log] == ["DROP"]
        assert not any(rec.point == "upstream-out"
                       for rec in farm.gateway.upstream_trace.records)
        report = check_wire(certify_farm(farm, label="drop"), farm)
        assert report.ok
        assert report.checked == 0

    def test_the_wire_check_covers_the_one_flow(self):
        farm = _active_farm()
        cert = certify_farm(farm, label="combined")
        assert check_wire(cert, farm).to_dict() \
            == {"checked": 1, "covered": 1, "violations": []}


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
        from repro.reporting.report import StreamingReport, render_report

        farm = _active_farm(run=False)
        streams = StreamingReport([farm.subfarms["live"]])
        farm.run(until=ACTIVE_UNTIL)
        cert = certify_farm(farm, label="report")
        coverage = check_wire(cert, farm)
        report = streams.report()
        report.attach_certificate(cert, coverage=coverage.to_dict())
        rendered = render_report(report)
        assert "Isolation certificate" in rendered
        assert "Result: CONTAINED" in rendered
        assert cert["digest"] in rendered
        assert "World grants" in rendered
        assert "Runtime coverage" in rendered

    def test_report_without_certificate_unchanged(self):
        from repro.reporting.report import StreamingReport, render_report

        farm = _active_farm(run=False)
        streams = StreamingReport([farm.subfarms["live"]])
        farm.run(until=ACTIVE_UNTIL)
        report = streams.report()
        assert "Isolation certificate" not in render_report(report)
