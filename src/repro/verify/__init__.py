"""Isolation verification plane: machine-checked containment certificates.

The GQ paper's containment claim — inmates can only reach the world
through paths the operator deliberately granted — is enforced at
runtime by the gateway, but until now it was *checked* only by ad-hoc
leak greps over flow logs.  This package turns the claim into a proof
obligation:

1. :mod:`repro.verify.model` compiles the entire containment decision
   surface (per-VLAN policies, safety filter, failover pending policy,
   fault-plan outage windows) into a finite model over abstract flows;
2. :mod:`repro.verify.certificate` classifies every abstract flow once
   — grant, leak with its trace, or contained — and signs the result
   into a canonical JSON certificate (digest-stable across runs;
   per-shard certificates merge deterministically into a campaign
   certificate);
3. :mod:`repro.verify.runtime` cross-validates the static proof
   against runtime evidence — every frame an inmate sent upstream must
   follow a flow-log line that lets it out, and that line must be
   covered by a certificate grant at the frame's port.

CLI: ``python -m repro.verify certify`` / ``check`` / ``--quick``.
Semantics, schema, and known abstraction gaps: docs/VERIFICATION.md.
"""

from repro.verify.certificate import (
    CAMPAIGN_SCHEMA,
    SCHEMA,
    build_certificate,
    canonical_digest,
    certify_farm,
    merge_certificates,
    verify_digest,
)
from repro.verify.model import (
    IsolationModel,
    Outcome,
    PolicyModel,
    SubfarmModel,
    compile_farm,
    compile_policy,
)
from repro.verify.runtime import (
    CoverageReport,
    GrantIndex,
    check_journal,
    check_wire,
    render_violations,
)

__all__ = [
    "CAMPAIGN_SCHEMA",
    "SCHEMA",
    "CoverageReport",
    "GrantIndex",
    "IsolationModel",
    "Outcome",
    "PolicyModel",
    "SubfarmModel",
    "build_certificate",
    "canonical_digest",
    "certify_farm",
    "check_journal",
    "check_wire",
    "compile_farm",
    "compile_policy",
    "merge_certificates",
    "render_violations",
    "verify_digest",
]
