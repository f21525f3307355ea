"""Figure 7: the activity report.

"The reports break down activity by subfarm, inmate, and containment
decision, allowing us to verify that the gateway enforces these
decisions as expected (for example, an unusual number of FORWARD
verdicts might indicate a bug in the policy, and absence of any C&C
REWRITEs would indicate lack of botnet activity).  We also pull in
external information to help us verify containment (for example, we
check all global IP addresses currently used by inmates against
relevant IP blacklists)."

The renderer reproduces the Figure 7 layout: per-subfarm sections,
per-inmate blocks headed by policy name and global/internal address,
verdict groups with per-(annotation, target, port) flow counts, SMTP
session/DATA-transfer totals, and auto-infection MD5s.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.addresses import IPv4Address
from repro.reporting.analyzer import ShimAnalyzer, SmtpActivityAnalyzer

VERDICT_ORDER = ["FORWARD", "LIMIT", "DROP", "REDIRECT", "REFLECT",
                 "REWRITE", "FORWARD|LIMIT", "REDIRECT|REWRITE"]
# Rules per subfarm the rendered "Flow tables" section lists.
FLOWTABLE_RULES_SHOWN = 10


class InmateActivity:
    """Aggregated activity for one inmate."""

    def __init__(self, vlan: int) -> None:
        self.vlan = vlan
        self.policy = ""
        self.internal_ip: Optional[IPv4Address] = None
        self.global_ip: Optional[IPv4Address] = None
        # verdict -> (annotation, target, port) -> flow count
        self.groups: Dict[str, Dict[Tuple[str, str, int], int]] = {}
        self.smtp_sessions = 0
        self.smtp_data_transfers = 0
        self.blacklisted: Optional[bool] = None

    def verdict_total(self, verdict: str) -> int:
        return sum(self.groups.get(verdict, {}).values())


class ActivityReport:
    """The assembled report for one or more subfarms."""

    def __init__(self, title: str = "Inmate Activity") -> None:
        self.title = title
        # subfarm name -> vlan -> activity
        self.subfarms: Dict[str, Dict[int, InmateActivity]] = {}
        # subfarm name -> resilience summary (only for subfarms that
        # ran with the fault plane's resilience layer enabled).
        self.degradation: Dict[str, dict] = {}
        # subfarm name -> malice-barrier summary (only for subfarms
        # whose barrier rejected at least one input).
        self.malformed: Dict[str, dict] = {}
        # subfarm name -> match-action flow-table summary (only for
        # subfarms that installed at least one rule).
        self.flowtables: Dict[str, dict] = {}
        # Decision-journal snapshot (repro.obs.journal) backing the
        # "Decision audit" section; attached explicitly because the
        # journal is farm-wide, not per-subfarm.
        self.journal: Optional[dict] = None
        # Isolation certificate (repro.verify) plus its runtime
        # coverage report, backing the "Isolation certificate"
        # section; farm-wide like the journal.
        self.certificate: Optional[dict] = None
        self.certificate_coverage: Optional[dict] = None

    def attach_journal(self, snapshot: dict) -> None:
        """Attach a journal snapshot (live, dumped, or campaign-merged)
        so rendering includes the decision-audit section."""
        self.journal = snapshot

    def attach_certificate(self, certificate: dict,
                           coverage: Optional[dict] = None) -> None:
        """Attach an isolation certificate (farm or campaign schema,
        see repro.verify) and optionally its runtime coverage report so
        rendering includes the isolation-certificate section."""
        self.certificate = certificate
        self.certificate_coverage = coverage

    def add_subfarm(self, subfarm, shims: ShimAnalyzer,
                    smtp: SmtpActivityAnalyzer, blocklist=None) -> None:
        """Aggregate a subfarm's activity from the analyzers that
        streamed its inmate-side trace (:class:`StreamingReport`)."""
        inmates: Dict[int, InmateActivity] = {}
        for vlan, groups in shims.groups.items():
            activity = inmates[vlan] = InmateActivity(vlan)
            activity.policy = shims.policies.get(vlan, "")
            activity.groups = {verdict: dict(bucket)
                               for verdict, bucket in groups.items()}
            activity.internal_ip = subfarm.nat.internal_for(vlan)
            activity.global_ip = subfarm.nat.global_for(vlan)
            activity.smtp_sessions = smtp.sessions.get(vlan, 0)
            activity.smtp_data_transfers = smtp.data_transfers.get(vlan, 0)
            if blocklist is not None and activity.global_ip is not None:
                activity.blacklisted = blocklist.listed(activity.global_ip)
        self.subfarms[subfarm.name] = inmates
        resilience = getattr(subfarm.router, "resilience", None)
        if resilience is not None:
            self.degradation[subfarm.name] = resilience.summary()
        barrier = getattr(subfarm.router, "barrier", None)
        if barrier is not None and barrier.parse_errors:
            self.malformed[subfarm.name] = barrier.summary()
        flowtable = getattr(subfarm.router, "flowtable", None)
        if flowtable is not None and flowtable.installs:
            summary = flowtable.stats()
            summary["entries"] = flowtable.snapshot()
            self.flowtables[subfarm.name] = summary

    # ------------------------------------------------------------------
    def verdict_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for inmates in self.subfarms.values():
            for activity in inmates.values():
                for verdict, bucket in activity.groups.items():
                    totals[verdict] = totals.get(verdict, 0) + sum(
                        bucket.values())
        return totals


class StreamingReport:
    """A report's analyzers, streaming each subfarm's inmate-side trace
    from construction on: build it before the run, then :meth:`report`
    at any point: the trace itself stores nothing."""

    def __init__(self, subfarms) -> None:
        self.streams = [(subfarm,
                         ShimAnalyzer.streaming(subfarm.router.trace),
                         SmtpActivityAnalyzer.streaming(subfarm.router.trace))
                        for subfarm in subfarms]

    def report(self, blocklist=None,
               title: str = "Inmate Activity") -> ActivityReport:
        report = ActivityReport(title)
        for subfarm, shims, smtp in self.streams:
            report.add_subfarm(subfarm, shims, smtp, blocklist)
        return report


def _render_group(lines: List[str], verdict: str,
                  bucket: Dict[Tuple[str, str, int], int]) -> None:
    lines.append(f"{verdict}")
    for (annotation, target, port), count in sorted(
        bucket.items(), key=lambda item: -item[1]
    ):
        label = annotation or "(unannotated)"
        lines.append(f"- {label}")
        lines.append(f"  {'target':<24} {'port':>6} {'#flows':>8}")
        lines.append(f"  {target:<24} {port:>6} {count:>8}")
    lines.append("")


class ReportScheduler:
    """Hourly/daily report generation (§6.5).

    "Bro's log-rotation functionality then initiates activity reports
    on an hourly and daily basis."  Each firing snapshots the given
    subfarms into a rendered report of everything since the scheduler
    was built (its analyzers stream the traces); consumers read
    ``reports`` or hook ``on_report``.
    """

    def __init__(self, sim, subfarms, blocklist=None,
                 interval: float = 3600.0, on_report=None,
                 telemetry=None) -> None:
        from repro.sim.process import Process

        self.sim = sim
        self.streams = StreamingReport(subfarms)
        self.blocklist = blocklist
        self.on_report = on_report
        self.telemetry = telemetry
        self.reports: List[Tuple[float, str]] = []
        self._process = Process(sim, interval, self._fire,
                                label="report-rotation")
        self._process.start()

    def stop(self) -> None:
        self._process.stop()

    def _fire(self) -> None:
        report = self.streams.report(
            self.blocklist, title=f"Inmate Activity (t={self.sim.now:.0f}s)")
        rendered = render_report(report, telemetry=self.telemetry)
        self.reports.append((self.sim.now, rendered))
        if self.on_report is not None:
            self.on_report(self.sim.now, report, rendered)


def _render_decision_audit(lines: List[str], snapshot: dict) -> None:
    """The journal-backed audit: event counts, the deepest causal
    chains, and quarantines cross-referenced to pcap frame indices."""
    from repro.obs.provenance import (
        deepest_chains,
        event_counts,
        render_chain,
    )

    events = snapshot.get("events", [])
    header = "Decision audit"
    lines.append(header)
    lines.append("=" * len(header))
    lines.append("")
    lines.append(f"Journal: {snapshot.get('recorded', 0)} events "
                 f"recorded, {snapshot.get('evicted', 0)} evicted "
                 f"(schema {snapshot.get('schema')})")
    lines.append("")
    lines.append("Events by kind")
    for kind, count in event_counts(events).items():
        lines.append(f"  {kind:<24} {count:>8}")
    lines.append("")
    chains = deepest_chains(events, n=5)
    if chains:
        lines.append("Deepest causal chains")
        for depth, chain in chains:
            lines.append(f"- depth {depth}")
            for line in render_chain(chain).splitlines():
                lines.append(f"  {line}")
        lines.append("")
    quarantines = [event for event in events
                   if event.get("kind") == "barrier.quarantine"]
    if quarantines:
        lines.append("Quarantined inputs (pcap frame cross-reference)")
        for event in quarantines:
            fields = event.get("fields", {})
            frame = fields.get("frame_index")
            frame_text = f"frame #{frame}" if frame is not None \
                else "not quarantined (no bytes)"
            lines.append(
                f"  t={event['t']:<12.6f} vlan={event.get('vlan')} "
                f"{fields.get('protocol', '?'):<10} {frame_text}  "
                f"{fields.get('reason', '')}")
        lines.append("")


def _render_certificate(lines: List[str], certificate: dict,
                        coverage: Optional[dict]) -> None:
    """The proof section: what the verifier certified, the world-grant
    table, and (when attached) how runtime evidence covered it."""
    from repro.verify.certificate import render_certificate

    header = "Isolation certificate"
    lines += [header, "=" * len(header), ""]
    lines += render_certificate(certificate, coverage)
    lines.append("")


def render_report(report: ActivityReport, telemetry=None,
                  journal=None) -> str:
    """Render in the Figure 7 textual layout.

    With a live ``telemetry`` domain, a farm-wide metrics appendix
    (see repro.obs.export.render_text) follows the per-inmate blocks.
    ``journal`` (a journal snapshot dict; defaults to the report's
    attached one) adds the decision-audit section.
    """
    lines: List[str] = []
    lines.append(report.title)
    lines.append("=" * len(report.title))
    lines.append("")
    lines.append(f"Active subfarms: {', '.join(report.subfarms)}")
    lines.append("")
    for name, inmates in report.subfarms.items():
        header = f"Subfarm '{name}'"
        lines.append(header)
        lines.append("-" * max(len(header), 40))
        lines.append("")
        for vlan in sorted(inmates):
            activity = inmates[vlan]
            label = activity.policy or "(no policy observed)"
            address = (
                f"{activity.global_ip}/{activity.internal_ip}"
                if activity.global_ip else f"{activity.internal_ip}"
            )
            title = f"{label} [{address}, VLAN {vlan}]"
            lines.append(title)
            lines.append("-" * len(title))
            for verdict in sorted(
                activity.groups,
                key=lambda v: (VERDICT_ORDER.index(v)
                               if v in VERDICT_ORDER else 99),
            ):
                _render_group(lines, verdict, activity.groups[verdict])
            if activity.smtp_sessions or activity.smtp_data_transfers:
                lines.append(f"SMTP sessions       {activity.smtp_sessions}")
                lines.append(
                    f"SMTP DATA transfers {activity.smtp_data_transfers}")
            if activity.blacklisted is not None:
                status = ("LISTED — investigate containment!"
                          if activity.blacklisted else "clean")
                lines.append(f"Blacklist check     {status}")
            lines.append("")
    if report.degradation:
        header = "Containment degradation"
        lines.append(header)
        lines.append("=" * len(header))
        lines.append("")
        for name in sorted(report.degradation):
            summary = report.degradation[name]
            lines.append(f"Subfarm '{name}' "
                         f"(pending policy: {summary['pending_policy']})")
            lines.append(
                f"  fail-closed {summary['fail_closed']:>6}   "
                f"fail-open {summary['fail_open']:>6}   "
                f"retries {summary['retries']:>6}   "
                f"failovers {summary['failovers']:>6}")
            lines.append(
                f"  degraded refusals {summary['degraded_refusals']:>6}   "
                f"degraded seconds {summary['degraded_seconds']:.1f}")
            for ip in sorted(summary["servers"]):
                lines.append(f"  cs {ip:<16} {summary['servers'][ip]}")
            lines.append("")
    if report.malformed:
        header = "Malformed traffic"
        lines.append(header)
        lines.append("=" * len(header))
        lines.append("")
        for name in sorted(report.malformed):
            summary = report.malformed[name]
            status = " FAIL-STOPPED" if summary["fail_stopped"] else ""
            lines.append(f"Subfarm '{name}' "
                         f"(malice policy: {summary['policy']}){status}")
            lines.append(
                f"  parse errors {summary['parse_errors']:>6}   "
                f"isolated flows {summary['isolated_flows']:>6}   "
                f"fail-stop drops {summary['failstop_drops']:>6}   "
                f"quarantined {summary['quarantined']:>6}")
            for key in sorted(summary["by_vlan_protocol"]):
                lines.append(
                    f"  {key:<24} {summary['by_vlan_protocol'][key]:>6}")
            lines.append("")
    if report.flowtables:
        header = "Flow tables"
        lines.append(header)
        lines.append("=" * len(header))
        lines.append("")
        for name in sorted(report.flowtables):
            summary = report.flowtables[name]
            lines.append(f"Subfarm '{name}'")
            lines.append(
                f"  occupancy {summary['occupancy']:>6}   "
                f"hits {summary['hits']:>8}   "
                f"misses {summary['misses']:>6}   "
                f"installs {summary['installs']:>6}")
            lines.append(
                f"  evictions {summary['evictions']:>6}   "
                f"retired {summary['retired']:>6}")
            # The busiest rules only: a day-scale run installs
            # thousands, and report.flowtables keeps them all.
            entries = sorted(summary["entries"],
                             key=lambda entry: -entry["hits"])
            if entries:
                lines.append(
                    f"  {'action':<10} {'vlan':>4} {'verdict':<16} "
                    f"{'hits':>8} {'emit':<8} match")
                for entry in entries[:FLOWTABLE_RULES_SHOWN]:
                    match = entry["match"]
                    match_text = (
                        f"{IPv4Address(match['src'])}:{match['sport']} "
                        f"-> {IPv4Address(match['dst'])}:{match['dport']}")
                    lines.append(
                        f"  {entry['action']:<10} {entry['vlan']:>4} "
                        f"{entry['verdict'] or '-':<16} "
                        f"{entry['hits']:>8} {entry['emit']:<8} "
                        f"{match_text}")
                hidden = len(entries) - FLOWTABLE_RULES_SHOWN
                if hidden > 0:
                    lines.append(f"  … {hidden} more "
                                 "(examples/flowtable_dump.py prints all)")
            lines.append("")
    if report.certificate is not None:
        _render_certificate(lines, report.certificate,
                            report.certificate_coverage)
    journal_snapshot = journal if journal is not None else report.journal
    if journal_snapshot is not None and journal_snapshot.get("events"):
        _render_decision_audit(lines, journal_snapshot)
    if telemetry is not None and telemetry.enabled:
        from repro.obs.export import render_text

        appendix = "Appendix: farm telemetry"
        lines.append(appendix)
        lines.append("=" * len(appendix))
        lines.append("")
        lines.append(render_text(telemetry))
    return "\n".join(lines)
