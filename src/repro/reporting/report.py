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
from repro.reporting.analyzer import (
    ContainmentEvent,
    ShimAnalyzer,
    SmtpActivityAnalyzer,
)

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

    def add_event(self, event: ContainmentEvent) -> None:
        if event.policy:
            self.policy = event.policy
        key = (event.annotation, str(event.resulting_flow.resp_ip),
               event.resulting_flow.resp_port)
        bucket = self.groups.setdefault(event.verdict, {})
        bucket[key] = bucket.get(key, 0) + 1

    def verdict_total(self, verdict: str) -> int:
        return sum(self.groups.get(verdict, {}).values())


class ActivityReport:
    """The assembled report for one or more subfarms."""

    def __init__(self, title: str = "Inmate Activity") -> None:
        self.title = title
        # subfarm name -> vlan -> activity
        self.subfarms: Dict[str, Dict[int, InmateActivity]] = {}
        self.cs_vlans: Dict[str, Optional[int]] = {}
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

    @classmethod
    def from_subfarms(cls, subfarms, blocklist=None,
                      title: str = "Inmate Activity") -> "ActivityReport":
        report = cls(title)
        for subfarm in subfarms:
            report.add_subfarm(subfarm, blocklist)
        return report

    def add_subfarm(self, subfarm, blocklist=None,
                    shims: Optional[ShimAnalyzer] = None,
                    smtp: Optional[SmtpActivityAnalyzer] = None) -> None:
        """Aggregate a subfarm's activity.  Pass pre-attached streaming
        analyzers for runs whose traces rotate (day-scale and longer);
        otherwise they are computed post-hoc from the stored trace."""
        shims = shims if shims is not None else ShimAnalyzer(
            subfarm.router.trace)
        smtp = smtp if smtp is not None else SmtpActivityAnalyzer(
            subfarm.router.trace)
        inmates: Dict[int, InmateActivity] = {}
        for event in shims.events:
            activity = inmates.setdefault(event.vlan,
                                          InmateActivity(event.vlan))
            activity.add_event(event)
        for vlan, activity in inmates.items():
            activity.internal_ip = subfarm.nat.internal_for(vlan)
            activity.global_ip = subfarm.nat.global_for(vlan)
            activity.smtp_sessions = smtp.sessions.get(vlan, 0)
            activity.smtp_data_transfers = smtp.data_transfers.get(vlan, 0)
            if blocklist is not None and activity.global_ip is not None:
                activity.blacklisted = blocklist.listed(activity.global_ip)
        self.subfarms[subfarm.name] = inmates
        self.cs_vlans[subfarm.name] = None
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

    def blacklisted_inmates(self) -> List[Tuple[str, int]]:
        out = []
        for name, inmates in self.subfarms.items():
            for vlan, activity in inmates.items():
                if activity.blacklisted:
                    out.append((name, vlan))
        return out


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
    subfarms into a rendered report; consumers read ``reports`` or
    hook ``on_report``.
    """

    def __init__(self, sim, subfarms, blocklist=None,
                 interval: float = 3600.0, on_report=None,
                 telemetry=None) -> None:
        from repro.sim.process import Process

        self.sim = sim
        self.subfarms = list(subfarms)
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
        report = ActivityReport.from_subfarms(
            self.subfarms, self.blocklist,
            title=f"Inmate Activity (t={self.sim.now:.0f}s)")
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
    header = "Isolation certificate"
    lines.append(header)
    lines.append("=" * len(header))
    lines.append("")
    lines.append(f"Result: {certificate.get('result')}   "
                 f"schema {certificate.get('schema')}   "
                 f"exact model: {certificate.get('exact')}")
    lines.append(f"Certificate digest: {certificate.get('digest')}")
    model_digest = certificate.get("model_digest")
    if model_digest:
        lines.append(f"Model digest:       {model_digest}")
    lines.append(f"States explored: "
                 f"{certificate.get('states_explored', 0)}   "
                 f"leak paths: {certificate.get('leak_count', 0)}")
    grants = certificate.get("grants", [])
    if grants:
        lines.append("")
        lines.append("World grants")
        lines.append(f"  {'subfarm':<14} {'vlan':<9} {'dir':<9} "
                     f"{'dst':<6} {'proto':<5} {'ports':<12} verdict")
        for grant in grants:
            ports = grant["ports"]
            span = (str(ports[0]) if ports[0] == ports[1]
                    else f"{ports[0]}-{ports[1]}")
            lines.append(
                f"  {grant['subfarm']:<14} {grant['vlan']:<9} "
                f"{grant['direction']:<9} {grant['dst']:<6} "
                f"{grant['proto']:<5} {span:<12} {grant['verdict']} "
                f"({grant['grant_kind']})")
    counterexample = certificate.get("counterexample")
    if counterexample:
        path = counterexample.get("path", {})
        lines.append("")
        lines.append(f"Counterexample ({counterexample.get('kind')}): "
                     f"subfarm={path.get('subfarm')} "
                     f"src_vlan={path.get('src_vlan')} "
                     f"dst={path.get('dst')} proto={path.get('proto')} "
                     f"ports={path.get('ports')}")
    if coverage is not None:
        lines.append("")
        lines.append(f"Runtime coverage: {coverage.get('covered', 0)}/"
                     f"{coverage.get('checked', 0)} world-reaching "
                     f"observations covered, "
                     f"{len(coverage.get('violations', []))} violation(s)")
        for violation in coverage.get("violations", []):
            lines.append(f"  UNCOVERED {violation.get('source')}: "
                         f"vlan={violation.get('vlan')} "
                         f"proto={violation.get('proto')} "
                         f"verdict={violation.get('verdict')} "
                         f"dst={violation.get('destination') or violation.get('dst')}")
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
            timeouts = summary["timeout_evictions"]
            lines.append(f"Subfarm '{name}'")
            lines.append(
                f"  occupancy {summary['occupancy']:>6}   "
                f"hits {summary['hits']:>8}   "
                f"misses {summary['misses']:>6}   "
                f"installs {summary['installs']:>6}")
            lines.append(
                f"  evictions {summary['evictions']:>6}   "
                f"idle timeouts {timeouts['idle']:>6}   "
                f"hard timeouts {timeouts['hard']:>6}")
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
