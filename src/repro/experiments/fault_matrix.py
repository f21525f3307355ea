"""Fault-matrix sweep: chaos scenarios × seeds over whole-farm runs.

Each cell runs :func:`fault_farm_shard` — the streaming whole-farm
workload with the resilience layer enabled (verdict deadlines, CS
failover, fail-closed pending policy) under one named fault
scenario from :data:`SCENARIOS`.  Every cell proves the fail-closed
property in-shard two ways: an **isolation certificate**
(:func:`repro.verify.certify_farm` — the static decision surface,
fault windows included, each abstract flow classified once) and the
wire check (:func:`repro.verify.check_wire`: a frame on the upstream
trace that no verdict lets out, an unverdicted or fail-closed flow's,
is an ``unlicensed`` violation, and one whose verdict no grant covers
is ``uncovered``; each names its (vlan, dst, dport, proto) path).  A
cell that handed a flow off but whose wire check checked nothing is a
violation too: it would pass vacuously.  Because the fault plane
draws all randomness from named RNG streams off the farm seed,
identical seed + identical scenario ⇒ identical digest, which
``--quick`` asserts by running one cell twice.

CLI (exits 1 when the summary lists a violation)::

    python -m repro.experiments fault-matrix --workers 4
    python -m repro.experiments fault-matrix --quick   # make chaos-quick
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

from repro.core.policy import AllowAll
from repro.farm import Farm, FarmConfig
from repro.net.http import echo
from repro.parallel import Campaign, ShardSpec, run_campaign
from repro.parallel.tasks import TARGET_IP, TARGET_PORT, _streaming_image

__all__ = [
    "SCENARIOS",
    "build_fault_farm",
    "fault_farm_shard",
    "build_matrix_campaign",
    "run_matrix",
    "run",
]

# Named chaos scenarios.  ``trigger`` installs an absence-of-activity
# revert trigger so the life-cycle fault kinds have reverts to fail.
SCENARIOS: Dict[str, dict] = {
    "baseline": {
        "specs": [],
    },
    "cs_crash": {
        "specs": [{"kind": "cs_crash", "at": 30.0}],
    },
    "cs_crash_restore": {
        "specs": [{"kind": "cs_crash", "at": 30.0, "restore_after": 40.0}],
    },
    "shim_partition": {
        "specs": [{"kind": "shim_partition", "start": 20.0, "end": 50.0}],
    },
    "cs_hang": {
        "specs": [{"kind": "cs_hang", "start": 20.0, "end": 60.0}],
    },
    "shim_degraded": {
        "specs": [
            {"kind": "shim_drop", "probability": 0.3,
             "start": 10.0, "end": 80.0},
            {"kind": "shim_delay", "delay": 0.05, "jitter": 0.05,
             "start": 10.0, "end": 80.0},
        ],
    },
    "revert_fail": {
        "specs": [{"kind": "revert_fail", "count": 1}],
        "trigger": True,
        # The absence trigger first fires on the t=120 sweep; the
        # failed revert, its backoff retry, and the eventual reboot
        # need the longer horizon.
        "duration": 260.0,
    },
}

#: The smoke subset ``make chaos-quick`` runs: one crash, one
#: partition, one hang.
QUICK_SCENARIOS = ("cs_crash", "shim_partition", "cs_hang")


def build_fault_farm(seed: int, scenario: str = "baseline",
                     subfarms: int = 2, inmates: int = 3,
                     rounds: int = 30, duration: float = 120.0,
                     extra_cs: int = 1,
                     verdict_deadline: float = 5.0,
                     pending_policy: str = "drop",
                     telemetry: bool = True):
    """Build and run one resilient fault-scenario farm; returns the
    completed farm (subfarms under ``farm.subfarms``).  Shared by
    :func:`fault_farm_shard` and ``python -m repro.verify``."""
    cell = SCENARIOS[scenario]
    duration = cell.get("duration", duration)
    config = FarmConfig(
        seed=seed,
        telemetry=telemetry,
        fault_plan={"specs": cell["specs"]},
        verdict_deadline=verdict_deadline,
        pending_policy=pending_policy,
    )
    farm = Farm(config)
    echo(farm.add_external_host("echo", TARGET_IP), TARGET_PORT)
    for index in range(subfarms):
        sub = farm.create_subfarm(f"fault-sub-{index}")
        sub.set_default_policy(AllowAll())
        if extra_cs > 0:
            sub.add_containment_servers(extra_cs)
        vlans = set()
        for _ in range(inmates):
            inmate = sub.create_inmate(
                image_factory=_streaming_image(rounds))
            vlans.add(inmate.vlan)
        if cell.get("trigger"):
            sub.trigger_engine.add_text(
                f"*:{TARGET_PORT}/tcp / 30s < 1 -> revert", vlans)
    farm.run(until=duration)
    return farm


def fault_farm_shard(seed: int, scenario: str = "baseline",
                     subfarms: int = 2, inmates: int = 3,
                     rounds: int = 30, duration: float = 120.0,
                     extra_cs: int = 1,
                     verdict_deadline: float = 5.0,
                     pending_policy: str = "drop",
                     telemetry: bool = True) -> dict:
    """One resilient farm run under one named fault scenario.

    Same workload and digest recipe as
    :func:`repro.parallel.tasks.streaming_farm_shard`, plus: the
    scenario's fault plan installed, ``extra_cs`` standby containment
    servers per subfarm, the certificate and the wire check,
    per-subfarm resilience summaries, and the rendered report's
    degradation section.  The payload's determinism digest predates
    the certificate fields, so certifying does not perturb replay
    parity.
    """
    farm = build_fault_farm(
        seed, scenario=scenario, subfarms=subfarms, inmates=inmates,
        rounds=rounds, duration=duration, extra_cs=extra_cs,
        verdict_deadline=verdict_deadline, pending_policy=pending_policy,
        telemetry=telemetry)
    subs = list(farm.subfarms.values())  # creation order, digest-stable

    digest = hashlib.sha256()
    counters = {}
    flows_created = packets_relayed = 0
    for sub in subs:
        sub_counters = dict(sub.router.counters)
        counters[sub.name] = sub_counters
        flows_created += sub_counters.get("flows_created", 0)
        packets_relayed += sub_counters.get("packets_relayed", 0)
        digest.update(json.dumps({sub.name: sub_counters},
                                 sort_keys=True).encode())
        for entry in sub.router.flow_log:
            digest.update(
                f"{entry.timestamp:.9f}|{entry.vlan}|{entry.verdict}"
                f"|{entry.orig}|{entry.policy}".encode())
    for rec in farm.gateway.upstream_trace.records:
        digest.update(rec.frame.to_bytes())
    snapshot = farm.telemetry_snapshot()
    digest.update(json.dumps(snapshot, sort_keys=True).encode())

    resilience = {sub.name: sub.resilience.summary() for sub in subs
                  if sub.resilience is not None}
    for name in sorted(resilience):
        digest.update(json.dumps({name: resilience[name]},
                                 sort_keys=True).encode())

    from repro.reporting.report import ActivityReport, render_report
    from repro.verify import certify_farm, check_wire

    certificate = certify_farm(farm, label=f"{scenario}/s{seed}")
    coverage = check_wire(certificate, farm)

    report = ActivityReport.from_subfarms(subs)
    report.attach_certificate(certificate, coverage=coverage.to_dict())
    rendered = render_report(report)

    return {
        "seed": seed,
        "scenario": scenario,
        "virtual_seconds": farm.sim.now,
        "metrics": {
            "events": farm.sim.events_processed,
            "flows_created": flows_created,
            "packets_relayed": packets_relayed,
        },
        "counters": counters,
        "resilience": resilience,
        # The proof artifact rides in the payload (outside the replay
        # digest) so merge_results can fold shard certificates into
        # one campaign certificate.
        "certificate": certificate,
        "coverage": coverage.to_dict(),
        "lifecycle": {
            "retries": len(farm.controller.retries_scheduled),
            "abandoned": len(farm.controller.abandoned),
        },
        "degradation_reported": "Containment degradation" in rendered,
        "telemetry": snapshot,
        "digest": digest.hexdigest(),
    }


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
def build_matrix_campaign(scenarios=None, seeds=None, base_seed: int = 11,
                          subfarms: int = 2, inmates: int = 3,
                          rounds: int = 30, duration: float = 120.0,
                          timeout: Optional[float] = None) -> Campaign:
    scenarios = list(scenarios or SCENARIOS)
    seeds = list(seeds or [base_seed])
    shards = []
    for scenario in scenarios:
        for seed in seeds:
            shards.append(ShardSpec(
                index=len(shards),
                task="repro.experiments.fault_matrix:fault_farm_shard",
                params={"seed": seed, "scenario": scenario,
                        "subfarms": subfarms, "inmates": inmates,
                        "rounds": rounds, "duration": duration},
                timeout=timeout,
                label=f"{scenario}/s{seed}"))
    return Campaign("fault-matrix", shards, base_seed=base_seed,
                    metadata={"scenarios": scenarios, "seeds": seeds})


def run_matrix(scenarios=None, seeds=None, base_seed: int = 11,
               subfarms: int = 2, inmates: int = 3, rounds: int = 30,
               duration: float = 120.0, workers: int = 1,
               timeout: Optional[float] = None, hosts=None):
    campaign = build_matrix_campaign(
        scenarios, seeds, base_seed=base_seed, subfarms=subfarms,
        inmates=inmates, rounds=rounds, duration=duration,
        timeout=timeout)
    return run_campaign(campaign, workers=workers, hosts=hosts)


def summarize(result) -> dict:
    cells = {}
    violations: List[str] = []
    for shard in result.shard_results:
        if not shard.ok:
            violations.append(f"{shard.label}: shard failed "
                              f"({(shard.error or {}).get('kind')})")
            continue
        payload = shard.payload
        certificate = payload.get("certificate") or {}
        coverage = payload["coverage"]
        cells[shard.label] = {
            "digest": payload["digest"],
            "flows_created": payload["metrics"]["flows_created"],
            "certificate": {
                "result": certificate.get("result"),
                "digest": certificate.get("digest"),
                "grants": len(certificate.get("grants", [])),
            },
            "coverage": {"checked": coverage["checked"],
                         "covered": coverage["covered"],
                         "violations": len(coverage["violations"])},
            "degradation_reported": payload["degradation_reported"],
            "resilience": {
                name: {key: summary[key] for key in
                       ("fail_closed", "fail_open", "retries",
                        "failovers", "degraded_refusals",
                        "degraded_seconds")}
                for name, summary in payload["resilience"].items()
            },
        }
        if certificate.get("result") not in (None, "CONTAINED"):
            path = (certificate.get("counterexample") or {}).get("path", {})
            violations.append(
                f"{shard.label}: isolation certificate is "
                f"{certificate.get('result')} "
                f"(src_vlan={path.get('src_vlan')}, dst={path.get('dst')}, "
                f"proto={path.get('proto')})")
        for entry in coverage["violations"]:
            violations.append(
                f"{shard.label}: {entry['class']} frame upstream "
                f"(vlan={entry['vlan']}, dst={entry['dst']}:{entry['dport']}, "
                f"proto={entry['proto']})")
        # Every handoff of this AllowAll workload replays a flow toward
        # the world, so a cell that handed one off must have had
        # something on the wire to check; one whose flows all failed
        # closed or still wait for a verdict put nothing there.
        if not coverage["checked"] and any(
                sub_counters["handoffs"]
                for sub_counters in payload["counters"].values()):
            violations.append(
                f"{shard.label}: wire check checked nothing")
        if not payload["degradation_reported"]:
            violations.append(
                f"{shard.label}: report missing degradation section")

    return {
        "experiment": "fault-matrix",
        "campaign_digest": result.digest,
        "cells": cells,
        # run_campaign's merge has folded the shard certificates.
        "certificate": result.merged.get("certificate"),
        "violations": violations,
    }


def run(quick: bool = False, workers: int = 1, hosts=None, seeds=None,
        seed: int = 11, duration: float = 120.0) -> dict:
    """The matrix summary the registry row renders.  ``quick`` is the
    ``make chaos-quick`` smoke: one crash, one partition, one hang
    scenario, plus a same-cell determinism replay."""
    seeds = list(seeds or [seed])
    scenarios = QUICK_SCENARIOS if quick else None
    summary = summarize(run_matrix(
        scenarios, seeds, base_seed=seed, duration=duration,
        workers=workers, timeout=600.0, hosts=hosts))
    if not quick:
        return summary

    # Determinism: the same cell run twice must produce the same digest.
    replay = run_matrix(QUICK_SCENARIOS[:1], seeds[:1], base_seed=seed,
                        duration=duration, workers=1, timeout=600.0)
    first = f"{QUICK_SCENARIOS[0]}/s{seeds[0]}"
    original = summary["cells"].get(first, {}).get("digest")
    replay_shard = replay.shard_results[0]
    replayed = (replay_shard.payload or {}).get("digest") \
        if replay_shard.ok else None
    summary["determinism"] = {
        "cell": first,
        "match": original is not None and original == replayed,
    }
    if not summary["determinism"]["match"]:
        summary["violations"].append(
            f"{first}: replay digest mismatch ({original} != {replayed})")
    return summary
