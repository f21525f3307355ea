"""Isolation certificates: one classification pass, signed by digest.

One published cell decides each abstract flow of an
:class:`~repro.verify.model.IsolationModel`, so there is nothing to
search: :func:`build_certificate` files every flow once as a grant
(``explicit``, ``inbound-response``, ``content-controlled``), a leak
with its four-step trace (``unexpected-grant``, ``redirect-to-world``,
and per verdict-outage window ``pending-forward``) or contained — the
taxonomy of docs/VERIFICATION.md.  A certificate (schema
``gq.verify/2``) records the model digest that pins *what* was
verified, the state and transition counts that pin *how much* (5 and 3
per abstract flow: created, refused, admitted, verdict, terminal; 2
and 1 per outage case), the grant table, and either zero leak paths or
a minimal counterexample: the first leak, in leak order, of least
(subfarm, vlan, proto, low port).  ``digest`` is the sha256 of the
canonical JSON (sorted keys, compact separators) without the digest
field, so the same model certifies to byte-identical certificates,
which ``make verify-quick`` asserts.

Campaign certificates (schema ``gq.verify.campaign/2``) merge
per-shard certificates deterministically: shards sort by label, the
grant table is the deduplicated union, and the merged digest covers
the shard digests — so a serial and a parallel run of the same
campaign merge to the same campaign certificate.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Optional

from repro.core.verdicts import Verdict
from repro.gateway.failover import fail_open_possible
from repro.net.packet import PROTO_TCP
from repro.shape import REQUIRED, Table, check
from repro.verify.model import (DIRECTIONS, PROTO_NAMES, IsolationModel,
                                compile_farm)

__all__ = [
    "SCHEMA",
    "CAMPAIGN_SCHEMA",
    "build_certificate",
    "canonical_digest",
    "certify_farm",
    "check_certificate",
    "merge_certificates",
    "render_certificate",
    "verify_digest",
]

SCHEMA = "gq.verify/2"
CAMPAIGN_SCHEMA = "gq.verify.campaign/2"

#: Leak traces kept verbatim inside a certificate; beyond this only
#: the count and the minimal counterexample survive (certificates ride
#: inside shard payloads — they must stay small).
_MAX_LEAKS = 16


#: What the merge, the digest check and the grant index read from a
#: farm or campaign certificate, and from each of its grants.  Both
#: are open: a certificate carries more than its readers check.
GRANT = Table("grant", {
    "subfarm": (str, REQUIRED), "vlan": (str, REQUIRED),
    "proto": (str, REQUIRED), "verdict": (str, REQUIRED),
    "ports": ([int], REQUIRED)}, open=True)
CERTIFICATE = Table("certificate", {
    "label": (str, REQUIRED), "digest": (str, REQUIRED),
    "states_explored": (int, REQUIRED), "leak_count": (int, REQUIRED),
    "result": (str, REQUIRED), "grants": ([GRANT], REQUIRED)}, open=True)


def check_certificate(certificate: object) -> dict:
    """``certificate`` if it has the shape every reader of one relies
    on; a ValueError naming the first thing wrong otherwise.  A
    certificate comes back in a shard payload or from disk."""
    for grant in check(CERTIFICATE, certificate)["grants"]:
        if len(grant["ports"]) != 2:
            raise ValueError(f"grant ports are not [lo, hi]: {grant!r:.60}")
    return certificate


def canonical_digest(payload: dict) -> str:
    """sha256 over canonical JSON, ignoring any ``digest`` field."""
    scrubbed = {key: value for key, value in payload.items()
                if key != "digest"}
    blob = json.dumps(scrubbed, sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _vlan_text(lo: Optional[int], hi: Optional[int]) -> str:
    if lo is None:
        return "*"
    return str(lo) if lo == hi else f"{lo}-{hi}"


def _allow_covers(allow: Optional[List[dict]], proto_name: str,
                  port_lo: int, port_hi: int, verdict: str) -> bool:
    """Does the operator's allow-spec cover this world grant?  ``allow``
    entries are ``{"proto", "port_lo", "port_hi", "verdicts"}`` with
    every field optional (missing = any)."""
    if allow is None:
        return True
    ops = set(verdict.split("|"))
    for entry in allow:
        if entry.get("proto") not in (None, proto_name):
            continue
        lo = entry.get("port_lo", 0)
        hi = entry.get("port_hi", 65535)
        if not (lo <= port_lo and port_hi <= hi):
            continue
        allowed = entry.get("verdicts")
        if allowed is not None and not (ops & set(allowed)):
            continue
        return True
    return False


def _created(flow: dict) -> dict:
    """A trace's first step: the abstract flow ``flow`` is created."""
    return {"step": "flow.created", "subfarm": flow["subfarm"],
            "src_vlan": flow["vlan"], "dst": flow["dst"],
            "direction": flow["direction"], "proto": flow["proto"],
            "ports": flow["ports"]}


def build_certificate(model: IsolationModel, label: str = "",
                      allow=None) -> dict:
    """Classify every abstract flow of ``model`` once; sign the result."""
    states = transitions = 0
    grants: List[dict] = []
    leaks: List[dict] = []
    paths = ((subfarm, _vlan_text(lo, hi), policy_model, direction, proto)
             for subfarm in model.subfarms
             for lo, hi, policy_model in subfarm.assignments
             for direction in DIRECTIONS
             for proto in sorted(PROTO_NAMES))
    for subfarm, vlan, policy_model, direction, proto in paths:
        proto_name = PROTO_NAMES[proto]
        policy = policy_model.description.get("policy")
        for cell in policy_model.cells(direction, proto):
            verdict = Verdict.from_label(cell.verdict)
            for dst in ("world", "farm"):
                states += 5
                transitions += 3
                flow = {"subfarm": subfarm.name, "vlan": vlan,
                        "direction": direction, "dst": dst,
                        "proto": proto_name,
                        "ports": [cell.port_lo, cell.port_hi],
                        "content": cell.content, "verdict": cell.verdict,
                        "policy": policy}
                trace = [_created(flow),
                         {"step": "safety.admit", "bounds": subfarm.safety},
                         {"step": "verdict.applied", "phase": "normal",
                          "policy": policy, "verdict": cell.verdict,
                          "content": cell.content},
                         {"step": "emit.upstream", "dst": dst}]
                if verdict.grants_world or verdict.is_content_control:
                    if dst == "farm" and direction == "outbound":
                        continue            # never leaves the farm
                    if not verdict.grants_world:
                        kind = "content-controlled"
                    elif not _allow_covers(allow, proto_name, cell.port_lo,
                                           cell.port_hi, cell.verdict):
                        leaks.append(dict(flow, kind="unexpected-grant",
                                          trace=trace))
                        continue
                    elif direction == "inbound" and dst == "farm":
                        kind = "inbound-response"
                    else:
                        kind = "explicit"
                    grants.append(dict(flow, via="policy", grant_kind=kind))
                elif (verdict & Verdict.REDIRECT
                      and cell.target_class == "world"):
                    trace[-1] = {"step": "emit.upstream",
                                 "target": cell.target}
                    leaks.append(dict(flow, target=cell.target,
                                      kind="redirect-to-world", trace=trace))
        # Outage windows: the pending policy, not the cell, decides.
        handshakes = (("new", "established") if proto == PROTO_TCP
                      else ("datagram",))
        for window in subfarm.overlays:
            for dst in ("world", "farm"):
                for handshake in handshakes:
                    states += 2
                    transitions += 1
                    if (subfarm.pending_policy != "forward"
                            or dst == "farm"
                            or not fail_open_possible(
                                proto, handshake != "new")):
                        continue
                    flow = {"subfarm": subfarm.name, "vlan": vlan,
                            "direction": direction, "dst": dst,
                            "proto": proto_name, "ports": [0, 65535],
                            "content": "*", "verdict": "FORWARD",
                            "policy": "fail-open", "handshake": handshake,
                            "window": dict(window),
                            "kind": "pending-forward"}
                    flow["trace"] = [
                        _created(flow),
                        {"step": "fault.window", "kind": window.get("kind"),
                         "start": window.get("start"),
                         "end": window.get("end")},
                        {"step": "failover.pending",
                         "pending_policy": "forward",
                         "handshake": handshake, "verdict": "FORWARD"},
                        {"step": "emit.upstream", "dst": dst}]
                    leaks.append(flow)
    grants.sort(key=lambda g: (g["subfarm"], g["vlan"], g["direction"],
                               g["dst"], g["proto"], g["ports"][0],
                               g["ports"][1], g["content"], g["verdict"]))
    counterexample = None
    if leaks:
        best = min(leaks, key=lambda l: (l["subfarm"], l["vlan"],
                                         l["proto"], l["ports"][0]))
        counterexample = {
            "kind": best["kind"],
            "path": {"subfarm": best["subfarm"], "src_vlan": best["vlan"],
                     "dst": best.get("target") or best["dst"],
                     "proto": best["proto"], "ports": best["ports"]},
            "trace": best["trace"],
        }
    certificate = {
        "schema": SCHEMA, "label": label, "model_digest": model.digest(),
        "seed": model.seed, "states_explored": states,
        "transitions": transitions, "grants": grants,
        "leak_count": len(leaks), "leaks": leaks[:_MAX_LEAKS],
        "counterexample": counterexample, "allow": allow,
        "result": "CONTAINED" if not leaks else "LEAKY",
    }
    certificate["digest"] = canonical_digest(certificate)
    return certificate


def certify_farm(farm, plan=None, label: str = "", allow=None) -> dict:
    """Compile + classify + sign in one call (the common path)."""
    return build_certificate(compile_farm(farm, plan=plan), label=label,
                             allow=allow)


def render_certificate(cert: dict,
                       coverage: Optional[dict] = None) -> List[str]:
    """The lines the CLI and the activity report print for a farm or
    campaign certificate, and for its runtime coverage when given."""
    lines = [f"Result: {cert['result']}   schema {cert['schema']}",
             f"Certificate digest: {cert['digest']}"]
    if cert.get("model_digest"):
        lines.append(f"Model digest:       {cert['model_digest']}")
    lines.append(f"States explored: {cert['states_explored']}   "
                 f"transitions: {cert.get('transitions', '-')}   "
                 f"leak paths: {cert['leak_count']}")
    if cert["grants"]:
        lines += ["", f"World grants ({len(cert['grants'])})",
                  f"  {'subfarm':<14} {'vlan':<9} {'dir':<9} {'dst':<6} "
                  f"{'proto':<5} {'ports':<12} {'verdict':<28} content"]
    for grant in cert["grants"]:
        lo, hi = grant["ports"]
        span = str(lo) if lo == hi else f"{lo}-{hi}"
        verdict = f"{grant['verdict']} ({grant['grant_kind']})"
        lines.append(
            f"  {grant['subfarm']:<14} {grant['vlan']:<9} "
            f"{grant['direction']:<9} {grant['dst']:<6} "
            f"{grant['proto']:<5} {span:<12} {verdict:<28} "
            f"{grant['content']}")
    counterexample = cert.get("counterexample")
    if counterexample:
        path = counterexample["path"]
        lines += ["", f"Counterexample ({counterexample['kind']}): "
                      f"subfarm={path['subfarm']} "
                      f"src_vlan={path['src_vlan']} dst={path['dst']} "
                      f"proto={path['proto']} "
                      f"ports={path['ports'][0]}-{path['ports'][1]}"]
        for step in counterexample["trace"]:
            detail = ", ".join(f"{key}={value}"
                               for key, value in step.items()
                               if key != "step")
            lines.append(f"  -> {step['step']}  {detail}")
    if coverage is not None:
        violations = coverage.get("violations", [])
        lines += ["", f"Runtime coverage: {coverage.get('covered', 0)}/"
                      f"{coverage.get('checked', 0)} world-reaching "
                      f"observations covered, "
                      f"{len(violations)} violation(s)"]
        for violation in violations:
            lines.append(
                f"  UNCOVERED {violation.get('source')}: "
                f"vlan={violation.get('vlan')} "
                f"proto={violation.get('proto')} "
                f"verdict={violation.get('verdict')} "
                f"dst={violation.get('destination') or violation.get('dst')}")
    return lines


def verify_digest(certificate: dict) -> bool:
    """Re-derive the digest; False means the certificate was edited."""
    return (canonical_digest(check_certificate(certificate))
            == certificate["digest"])


def merge_certificates(certificates: List[dict],
                       label: str = "campaign") -> Optional[dict]:
    """Deterministically merge per-shard certificates.

    Order-independent: shards sort by ``(label, digest)``, grants
    dedup on their canonical JSON, and the merged digest covers the
    shard digest list — identical shard certificates in any arrival
    order produce an identical campaign certificate.
    """
    certs = [check_certificate(cert) for cert in certificates
             if cert is not None]
    if not certs:
        return None
    certs = sorted(certs, key=lambda c: (c["label"], c["digest"]))
    seen = set()
    grants = []
    counterexample = None
    leak_count = 0
    for cert in certs:
        leak_count += cert["leak_count"]
        if counterexample is None and cert.get("counterexample"):
            counterexample = cert["counterexample"]
        for entry in cert["grants"]:
            key = json.dumps(entry, sort_keys=True)
            if key not in seen:
                seen.add(key)
                grants.append(entry)
    grants.sort(key=lambda g: json.dumps(g, sort_keys=True))
    merged = {
        "schema": CAMPAIGN_SCHEMA,
        "label": label,
        "shards": [
            {"label": cert["label"],
             "digest": cert["digest"],
             "model_digest": cert.get("model_digest", ""),
             "result": cert["result"]}
            for cert in certs
        ],
        "states_explored": sum(c["states_explored"] for c in certs),
        "grants": grants,
        "leak_count": leak_count,
        "counterexample": counterexample,
        "result": ("CONTAINED"
                   if all(c["result"] == "CONTAINED" for c in certs)
                   else "LEAKY"),
    }
    merged["digest"] = canonical_digest(merged)
    return merged
