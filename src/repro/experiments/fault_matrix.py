"""Fault-matrix sweep: chaos scenarios × seeds over whole-farm runs.

Each cell runs :func:`fault_farm_shard` — the streaming whole-farm
workload with the resilience layer enabled (verdict deadlines, CS
failover, fail-closed pending policy) under one named fault
scenario from :data:`SCENARIOS`.  Every cell proves the fail-closed
property in-shard two ways: an **isolation certificate**
(:func:`repro.verify.certify_farm` — the static decision surface,
fault windows included, each abstract flow classified once) and a
runtime sweep (an unverdicted flow must never appear on the upstream
trace; any that does is reported with its (vlan, dst, proto) tuple
and checked against the certificate's grant table).  Because the fault plane
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
from repro.net.addresses import IPv4Address
from repro.net.packet import ACK, PROTO_TCP, SYN
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


def _leak_details(farm, subs) -> List[dict]:
    """Fail-closed property, runtime half: flows that never received a
    verdict (or were closed out by the fail-closed pending policy)
    must not appear upstream.  Each violation is returned with the
    leaking flow's (vlan, dst, proto) tuple so the matrix summary can
    name the path, not just count it.

    Checked from the upstream side, which needs no record of a flow
    once it is gone: every packet an inmate's NAT'd address sends on
    an inmate-originated tuple must follow, on that tuple, a flow-log
    line with a verdict that is neither a refusal nor the fail-closed
    policy's, and each TCP incarnation of the tuple (an outgoing SYN
    with a new sequence number) needs a line of its own.  A packet
    without one is a leak, whether its flow is live, evicted, retired
    or refused."""
    outbound: Dict[tuple, list] = {}
    for rec in farm.gateway.upstream_trace.records:
        five = rec.five_tuple
        if five is None:
            continue
        segment = rec.ip.payload
        syn = (segment.seq if five.proto == PROTO_TCP
               and segment.flags & (SYN | ACK) == SYN else None)
        outbound.setdefault(five.as_key(), []).append((rec.timestamp, syn))
    leaks: List[dict] = []
    for sub in subs:
        lines: Dict[tuple, list] = {}
        answering = set()
        for entry in sub.router.flow_log:
            orig = entry.orig
            if entry.inmate_is_originator:
                nat_global = sub.nat.global_for(entry.vlan)
                if nat_global is None:
                    continue
                key = (nat_global.value, orig.orig_port, orig.resp_ip.value,
                       orig.resp_port, orig.proto)
                lines.setdefault(key, []).append((
                    entry.timestamp, entry.verdict != "REFUSED"
                    and entry.policy != "fail-closed"))
            else:
                # The inmate answers an inbound flow: not checked.
                answering.add(orig.reversed().as_key())
        for key, packets in outbound.items():
            vlan = sub.nat.vlan_for_global(IPv4Address(key[0]))
            if (vlan is None or key in answering
                    or not _unlicensed(lines.get(key, ()), packets)):
                continue
            leaks.append({
                "subfarm": sub.name,
                "vlan": vlan,
                "dst": str(IPv4Address(key[2])),
                "proto": "tcp" if key[4] == PROTO_TCP else "udp",
                "dport": key[3],
            })
    return leaks


def _unlicensed(lines, packets) -> bool:
    """Whether any of one tuple's outgoing ``(time, syn)`` packets
    goes out without a flow-log line, of ``(time, permitted)``
    ``lines``, that lets it (a line at the packet's own time counts)."""
    index, permitted, fresh, isn, ok = 0, False, False, None, False
    for time, syn in packets:
        while index < len(lines) and lines[index][0] <= time:
            permitted, fresh = lines[index][1], True
            index += 1
        if syn is not None and syn != isn:
            # A new TCP incarnation: licensed by a line no earlier one
            # took.
            isn, ok, fresh = syn, permitted and fresh, False
        elif isn is None:
            ok = permitted
        if not ok:
            return True
    return False


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
    servers per subfarm, the certificate-backed leak check,
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
    from repro.verify import certify_farm, check_farm

    certificate = certify_farm(farm, label=f"{scenario}/s{seed}")
    coverage = check_farm(certificate, farm)

    report = ActivityReport.from_subfarms(subs)
    report.attach_certificate(certificate, coverage=coverage.to_dict())
    rendered = render_report(report)

    leak_flows = _leak_details(farm, subs)
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
        "leaks": len(leak_flows),
        "leak_flows": leak_flows,
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
        coverage = payload.get("coverage") or {}
        cells[shard.label] = {
            "digest": payload["digest"],
            "flows_created": payload["metrics"]["flows_created"],
            "leaks": payload["leaks"],
            "certificate": {
                "result": certificate.get("result"),
                "digest": certificate.get("digest"),
                "grants": len(certificate.get("grants", [])),
            },
            "coverage": {key: coverage.get(key, 0)
                         for key in ("checked", "covered")},
            "degradation_reported": payload["degradation_reported"],
            "resilience": {
                name: {key: summary[key] for key in
                       ("fail_closed", "fail_open", "retries",
                        "failovers", "degraded_refusals",
                        "degraded_seconds")}
                for name, summary in payload["resilience"].items()
            },
        }
        if payload["leaks"]:
            paths = "; ".join(
                f"(vlan={leak['vlan']}, dst={leak['dst']}:{leak['dport']}, "
                f"proto={leak['proto']})"
                for leak in payload.get("leak_flows", []))
            violations.append(
                f"{shard.label}: {payload['leaks']} unverdicted flow(s) "
                f"leaked upstream{': ' + paths if paths else ''}")
        if certificate.get("result") not in (None, "CONTAINED"):
            path = (certificate.get("counterexample") or {}).get("path", {})
            violations.append(
                f"{shard.label}: isolation certificate is "
                f"{certificate.get('result')} "
                f"(src_vlan={path.get('src_vlan')}, dst={path.get('dst')}, "
                f"proto={path.get('proto')})")
        for entry in coverage.get("violations", []):
            violations.append(
                f"{shard.label}: uncovered {entry.get('source')} "
                f"observation (vlan={entry.get('vlan')}, "
                f"dst={entry.get('destination') or entry.get('dst')}, "
                f"proto={entry.get('proto')})")
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
