"""Runtime cross-validation: static proof vs what actually happened.

A certificate is only as good as its model, so this second pass
checks the *runtime* evidence against the certified grant table.

:func:`check_wire` is the pass over a live farm.
It reads what the network emitted, the gateway's upstream trace,
against the routers' flow logs: every frame an inmate's NAT'd address
sent upstream must follow a flow-log line that lets it out (else an
``unlicensed`` violation), and that line's (subfarm, vlan, proto,
verdict) must be covered by a grant at the port the frame went to
(else ``uncovered``).  The containment server's onward (nonce) leg
of a REWRITE flow is held to that flow's line and grant.

:func:`check_journal` is the pass over a journal snapshot with no live
farm (dumped, or a shard-merged campaign journal): every
world-reaching ``verdict.applied`` event (FORWARD / LIMIT / REWRITE)
and every ``failover.pending`` event that resolved FORWARD must be
covered by a grant at (vlan, proto, verdict) — journal events carry
no port (a documented abstraction gap; docs/VERIFICATION.md).

Violations come back as structured dicts; for journal violations the
flow's full causal chain renders via :mod:`repro.obs.provenance`, so
an uncovered flow explains itself the same way ``python -m repro.obs
why`` does.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.verdicts import Verdict
from repro.net.addresses import IPv4Address
from repro.net.packet import ACK, PROTO_TCP, SYN
from repro.verify.certificate import check_certificate

__all__ = [
    "CoverageReport",
    "GrantIndex",
    "check_journal",
    "check_wire",
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
        self.certificate = check_certificate(certificate)
        self.grants: List[dict] = list(certificate["grants"])
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


def check_journal(certificate: dict,
                  journal_snapshot: dict) -> CoverageReport:
    """Certificate coverage of a journal snapshot (live, dumped, or a
    shard-merged campaign journal).  An event whose ``flow.created``
    the ring has evicted is checked too: its destination is unknown,
    so it is held to the grants as if it reached the world."""
    index = GrantIndex(certificate)
    report = CoverageReport()
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
        evicted = flow not in destinations
        destination = destinations.get(flow)
        if not evicted and not _is_world(destination):
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
                      "grant" + ("; its destination was evicted from "
                                 "the journal" if evicted else ""),
        })
    return report


def check_wire(certificate: dict, farm) -> CoverageReport:
    """Certificate coverage of what a live farm put on the wire: every
    frame an inmate's NAT'd address sent upstream on an
    inmate-originated tuple, at full port precision.

    A frame must follow, on its tuple, a flow-log line that lets it
    out (:func:`_licences`), or it is ``unlicensed``; a frame on a
    tuple with no line of its own is the containment server's onward
    (nonce) leg when a REWRITE line has its source, and is held to
    that line, since ``connect_out(ip, port)`` may retarget it.  Each
    licensing line is then held, at the port the frame went to, to
    the grant table, or it is ``uncovered``.  Checked from the wire,
    which needs no record of a flow once it is gone: live, evicted,
    retired or refused flows are all checked."""
    index = GrantIndex(certificate)
    report = CoverageReport()
    outbound: Dict[tuple, list] = {}
    for rec in farm.gateway.upstream_trace.records:
        five = rec.five_tuple
        if five is None:
            continue
        segment = rec.ip.payload
        syn = (segment.seq if five.proto == PROTO_TCP
               and segment.flags & (SYN | ACK) == SYN else None)
        outbound.setdefault(five.as_key(), []).append((rec.timestamp, syn))
    for name in sorted(farm.subfarms):
        sub = farm.subfarms[name]
        lines: Dict[tuple, list] = {}
        rewrites: Dict[tuple, list] = {}
        answering = set()
        for entry in sub.router.flow_log:
            orig = entry.orig
            if not entry.inmate_is_originator:
                # The inmate answers an inbound flow: not checked.
                answering.add(orig.reversed().as_key())
                continue
            nat_global = sub.nat.global_for(entry.vlan)
            if nat_global is None:
                continue
            key = (nat_global.value, orig.orig_port, orig.resp_ip.value,
                   orig.resp_port, orig.proto)
            line = (entry.timestamp, entry.verdict != "REFUSED"
                    and entry.policy != "fail-closed", entry)
            lines.setdefault(key, []).append(line)
            if entry.verdict == "REWRITE":
                rewrites.setdefault(key[:2], []).append(line)
        for key, packets in outbound.items():
            vlan = sub.nat.vlan_for_global(IPv4Address(key[0]))
            if vlan is None or key in answering:
                continue
            own = lines.get(key)
            if own is None and key[4] == PROTO_TCP:
                own = rewrites.get(key[:2])     # the nonce leg
            wire = {"source": "wire", "subfarm": name, "vlan": vlan,
                    "dst": str(IPv4Address(key[2])),
                    "proto": "tcp" if key[4] == PROTO_TCP else "udp",
                    "dport": key[3]}
            licences = _licences(own or (), packets)
            if licences is None:
                report.violations.append({
                    **wire, "class": "unlicensed",
                    "reason": "frame sent upstream without a flow-log "
                              "line that lets it out"})
                continue
            for entry in licences:
                report.checked += 1
                if index.cover(entry.vlan, wire["proto"], entry.verdict,
                               port=key[3], subfarm=name) is not None:
                    report.covered += 1
                    continue
                report.violations.append({
                    **wire, "class": "uncovered", "verdict": entry.verdict,
                    "reason": "frame sent upstream not covered by any "
                              "certificate grant"})
    return report


def _licences(lines, packets) -> Optional[list]:
    """The flow-log entries that let one tuple's outgoing ``(time,
    syn)`` packets out, in order, from ``(time, permitted, entry)``
    ``lines`` (a line at the packet's own time counts); None when a
    packet goes out without one.  Each TCP incarnation of the tuple
    (an outgoing SYN with a new sequence number) needs a line no
    earlier one took."""
    index, line, fresh, isn, licence = 0, None, False, None, None
    used: list = []
    for time, syn in packets:
        while index < len(lines) and lines[index][0] <= time:
            line, fresh = lines[index], True
            index += 1
        if syn is not None and syn != isn:
            isn, licence, fresh = syn, line if fresh else None, False
        elif isn is None:
            licence = line
        if licence is None or not licence[1]:
            return None
        if not used or used[-1] is not licence[2]:
            used.append(licence[2])
    return used


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
            ("source", "class", "subfarm", "vlan", "proto", "dport",
             "verdict", "destination", "dst")
            if violation.get(key) is not None)
        lines.append(f"- {summary}")
        lines.append(f"  {violation['reason']}")
        flow = violation.get("flow")
        if flow and events:
            chain = chain_for(events, flow)
            if chain:
                lines.append(render_chain(chain, indent="    "))
    return "\n".join(lines)
