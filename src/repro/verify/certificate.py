"""Isolation certificates: signed-by-digest proof artifacts.

A certificate (schema ``gq.verify/2``) is the JSON record of one
exhaustive exploration: the model digest that pins *what* was
verified, the explored state count that pins *how much*, the grant
table that pins *which* inmate→world paths exist, and either zero
leak paths or a minimal counterexample trace.  ``digest`` is the
sha256 of the certificate's canonical JSON (sorted keys, compact
separators) with the digest field itself excluded — so two runs that
explored the same model and found the same surface produce
byte-identical certificates, which ``make verify-quick`` asserts.

Campaign certificates (schema ``gq.verify.campaign/2``) merge
per-shard certificates deterministically: shards sort by label, the
grant table is the deduplicated union, and the merged digest covers
the shard digests — so a serial and a parallel run of the same
campaign merge to the same campaign certificate (digest parity, the
same property :mod:`repro.parallel.merge` holds for results).
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Optional

from repro.shape import REQUIRED, Table, check
from repro.verify.explore import ExplorationResult, explore
from repro.verify.model import IsolationModel

__all__ = [
    "SCHEMA",
    "CAMPAIGN_SCHEMA",
    "build_certificate",
    "canonical_digest",
    "certify_farm",
    "check_certificate",
    "merge_certificates",
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


def build_certificate(model: IsolationModel, result: ExplorationResult,
                      label: str = "", allow=None) -> dict:
    """Assemble and self-sign one certificate."""
    leaks = [
        {key: value for key, value in leak.items()}
        for leak in result.leaks[:_MAX_LEAKS]
    ]
    certificate = {
        "schema": SCHEMA,
        "label": label,
        "model_digest": model.digest(),
        "seed": model.seed,
        "states_explored": result.states_explored,
        "transitions": result.transitions,
        "grants": result.grants,
        "leak_count": len(result.leaks),
        "leaks": leaks,
        "counterexample": result.counterexample,
        "allow": allow,
        "result": "CONTAINED" if not result.leaks else "LEAKY",
    }
    certificate["digest"] = canonical_digest(certificate)
    return certificate


def certify_farm(farm, plan=None, label: str = "", allow=None) -> dict:
    """Compile + explore + sign in one call (the common path)."""
    from repro.verify.model import compile_farm

    model = compile_farm(farm, plan=plan)
    result = explore(model, allow=allow)
    return build_certificate(model, result, label=label, allow=allow)


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
