"""Runtime cross-validation: static proof vs what actually happened.

A certificate is only as good as its model, so this second pass
checks the *runtime* evidence against the certified grant table:

* every world-reaching ``verdict.applied`` journal event (FORWARD /
  LIMIT / REWRITE on a flow whose recorded destination lies outside
  the farm) must be covered by a certificate grant — journal events
  carry (vlan, proto, verdict) but no port, so journal coverage is
  checked at that granularity (a documented abstraction gap;
  docs/VERIFICATION.md);
* every ``failover.pending`` event that resolved FORWARD must be
  covered the same way (via the pending-policy overlay);
* every installed upstream-emitting FlowTable entry
  (:meth:`~repro.gateway.flowtable.FlowTable.world_grants`) must be
  covered at full port precision — compiled rules carry their ports.

Violations come back as structured dicts; for journal violations the
flow's full causal chain renders via :mod:`repro.obs.provenance`, so
an uncovered flow explains itself the same way ``python -m repro.obs
why`` does.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.verdicts import Verdict
from repro.net.addresses import IPv4Address

__all__ = [
    "CoverageReport",
    "GrantIndex",
    "check_farm",
    "check_journal",
    "render_violations",
]


def _vlan_covered(spec: str, vlan: Optional[int]) -> bool:
    if spec == "*" or vlan is None:
        return True
    if "-" in spec:
        lo, hi = spec.split("-", 1)
        return int(lo) <= vlan <= int(hi)
    return int(spec) == vlan


class GrantIndex:
    """Coverage lookups over a certificate's grant table (farm or
    campaign certificate — both carry ``grants``)."""

    def __init__(self, certificate: dict) -> None:
        self.certificate = certificate
        self.grants: List[dict] = list(certificate.get("grants", []))
        # What each grant lets out; a pending-policy grant is a FORWARD.
        self._granted = [
            Verdict.from_label(grant["verdict"])
            | (Verdict.FORWARD if grant.get("via") == "pending" else 0)
            for grant in self.grants]

    def cover(self, vlan: Optional[int], proto: str, verdict: str,
              port: Optional[int] = None,
              subfarm: Optional[str] = None) -> Optional[dict]:
        """The first grant covering the observation, or None.

        ``port=None`` (journal events don't record one) matches any
        port range; a concrete port must fall inside the grant's
        atom.  The verdict matches when no op of the observation that
        the grant does not name reaches the world.
        """
        observed = Verdict.from_label(verdict)
        for grant, granted in zip(self.grants, self._granted):
            if subfarm is not None and grant["subfarm"] != subfarm:
                continue
            if grant["proto"] != proto:
                continue
            if not _vlan_covered(grant["vlan"], vlan):
                continue
            if port is not None:
                lo, hi = grant["ports"]
                if not lo <= port <= hi:
                    continue
            excess = observed & ~granted
            if excess.grants_world or excess.is_content_control:
                continue
            return grant
        return None


class CoverageReport:
    """Outcome of one runtime cross-validation pass."""

    __slots__ = ("checked", "covered", "violations")

    def __init__(self) -> None:
        self.checked = 0
        self.covered = 0
        self.violations: List[dict] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "covered": self.covered,
            "violations": self.violations,
        }


def _is_world(destination: Optional[str]) -> bool:
    if not destination:
        return False
    try:
        return not IPv4Address(destination).is_rfc1918()
    except (ValueError, TypeError):
        return False


def check_journal(certificate: dict, journal_snapshot: dict,
                  report: Optional[CoverageReport] = None
                  ) -> CoverageReport:
    """Certificate coverage of a journal snapshot (live, dumped, or a
    shard-merged campaign journal)."""
    index = GrantIndex(certificate)
    report = report or CoverageReport()
    events = journal_snapshot.get("events", [])
    destinations: Dict[str, str] = {}
    protos: Dict[str, str] = {}
    for event in events:
        if event.get("kind") != "flow.created":
            continue
        flow = event.get("flow")
        fields = event.get("fields", {})
        if flow:
            destinations[flow] = fields.get("destination", "")
            protos[flow] = fields.get("proto", "tcp")

    for event in events:
        kind = event.get("kind")
        fields = event.get("fields", {})
        verdict = fields.get("verdict", "")
        if kind == "verdict.applied":
            proto = fields.get("proto", "tcp")
        elif kind == "failover.pending":
            proto = protos.get(event.get("flow"), "tcp")
        else:
            continue
        observed = Verdict.from_label(verdict)
        if not (observed.grants_world or observed.is_content_control):
            continue
        flow = event.get("flow")
        destination = destinations.get(flow)
        if not _is_world(destination):
            continue  # farm-internal flow: nothing reached the world
        report.checked += 1
        grant = index.cover(event.get("vlan"), proto, verdict)
        if grant is not None:
            report.covered += 1
            continue
        report.violations.append({
            "source": "journal",
            "seq": event.get("seq"),
            "flow": flow,
            "vlan": event.get("vlan"),
            "proto": proto,
            "verdict": verdict,
            "destination": destination,
            "reason": f"{kind} event not covered by any certificate "
                      "grant",
        })
    return report


def check_flowtables(certificate: dict, farm,
                     report: Optional[CoverageReport] = None
                     ) -> CoverageReport:
    """Certificate coverage of every installed upstream-emitting flow
    table entry, at full port precision."""
    index = GrantIndex(certificate)
    report = report or CoverageReport()
    for name in sorted(farm.subfarms):
        table = farm.subfarms[name].router.flowtable
        for entry in table.world_grants():
            report.checked += 1
            grant = index.cover(entry["vlan"], _proto_name(entry["proto"]),
                                entry["verdict"], port=entry["dport"],
                                subfarm=name)
            if grant is not None:
                report.covered += 1
                continue
            report.violations.append({
                "source": "flowtable",
                "subfarm": name,
                "vlan": entry["vlan"],
                "proto": _proto_name(entry["proto"]),
                "dport": entry["dport"],
                "dst": entry["dst"],
                "verdict": entry["verdict"],
                "reason": "installed upstream-emitting entry not covered "
                          "by any certificate grant",
            })
    return report


def _proto_name(proto) -> str:
    if proto in ("tcp", "udp"):
        return proto
    from repro.net.packet import PROTO_TCP

    return "tcp" if proto == PROTO_TCP else "udp"


def check_farm(certificate: dict, farm) -> CoverageReport:
    """The full runtime pass over a live farm: journal coverage plus
    compiled flow-table coverage."""
    report = CoverageReport()
    check_journal(certificate, farm.journal_snapshot(), report)
    check_flowtables(certificate, farm, report)
    return report


def render_violations(report: CoverageReport,
                      journal_snapshot: Optional[dict] = None) -> str:
    """Human-readable violation listing; journal-sourced violations
    include the flow's causal provenance chain when the journal is at
    hand."""
    if report.ok:
        return (f"coverage ok: {report.covered}/{report.checked} "
                "world-reaching observations covered")
    from repro.obs.provenance import chain_for, render_chain

    events = (journal_snapshot or {}).get("events", [])
    lines = [f"{len(report.violations)} coverage violation(s):"]
    for violation in report.violations:
        summary = ", ".join(
            f"{key}={violation[key]}" for key in
            ("source", "subfarm", "vlan", "proto", "dport", "verdict",
             "destination", "dst")
            if violation.get(key) is not None)
        lines.append(f"- {summary}")
        lines.append(f"  {violation['reason']}")
        flow = violation.get("flow")
        if flow and events:
            chain = chain_for(events, flow)
            if chain:
                lines.append(render_chain(chain, indent="    "))
    return "\n".join(lines)
