"""``python -m repro.experiments`` — run experiments from the shell.

Every experiment that fans out over independent whole-farm runs takes
``--workers N`` (sharded across a spawn-safe worker pool, see
docs/PARALLELISM.md) and prints a JSON summary to stdout::

    python -m repro.experiments list
    python -m repro.experiments gateway-load-sweep --workers 4 --seeds 0..7
    python -m repro.experiments smtp-strictness --workers 2 --duration 300
    python -m repro.experiments containment-tradeoff --workers 4
    python -m repro.experiments streaming-farm --workers 2 --seeds 1..4

``--seeds a..b`` is an inclusive range; a comma list (``1,5,9``) also
works.

``--hosts h1:9000,h2:9000`` dispatches shards to running
``python -m repro.parallel.worker`` agents instead of the local pool;
``--topology farm.json`` (streaming-farm) compiles a
FarmTopology file into a placement and derives the campaign — and the
agent endpoints — from it.

``--snapshot PATH`` writes the experiment's merged telemetry snapshot
to a JSON file; ``--journal PATH`` writes the merged decision journal
(docs/OBSERVABILITY.md) — on ``streaming-farm`` it also turns shard
journaling on.  Both files feed ``python -m repro.obs`` (``why``,
``grep``, ``diff``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def parse_seeds(text: str) -> List[int]:
    """``"0..7"`` (inclusive) or ``"1,5,9"`` or a single ``"4"``."""
    text = text.strip()
    if ".." in text:
        low, _, high = text.partition("..")
        first, last = int(low), int(high)
        if last < first:
            raise ValueError(f"empty seed range: {text!r}")
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",") if part.strip()]


def _campaign_summary(result) -> dict:
    summary = result.to_dict()
    # Per-shard telemetry/journal snapshots make CLI output unwieldy;
    # the merged labeled views stay.
    for shard in summary["shards"]:
        if shard["payload"]:
            shard["payload"].pop("telemetry", None)
            shard["payload"].pop("journal", None)
    return summary


def _extract_artifact(summary: dict, key: str) -> Optional[dict]:
    """Find a telemetry/journal dict at the top level or under
    ``merged`` (campaign summaries)."""
    if not isinstance(summary, dict):
        return None
    value = summary.get(key)
    if isinstance(value, dict):
        return value
    merged = summary.get("merged")
    if isinstance(merged, dict) and isinstance(merged.get(key), dict):
        return merged[key]
    return None


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _export_artifacts(args, summary: dict) -> None:
    """Honour ``--snapshot`` / ``--journal`` for any experiment."""
    for flag, key in (("snapshot", "telemetry"), ("journal", "journal")):
        path = getattr(args, flag, None)
        if not path:
            continue
        doc = _extract_artifact(summary, key)
        if doc is None:
            print(f"--{flag}: experiment produced no {key} data; "
                  f"nothing written to {path}", file=sys.stderr)
            continue
        _write_json(path, doc)
        print(f"wrote {key} to {path}", file=sys.stderr)


# ----------------------------------------------------------------------
# Experiment runners
# ----------------------------------------------------------------------
def _run_gateway_load_sweep(args) -> dict:
    from repro.experiments.scalability import run_gateway_load_sweep

    result = run_gateway_load_sweep(
        seeds=args.seeds, count=args.count, base_seed=args.seed,
        subfarms=args.subfarms, inmates_per=args.inmates_per,
        duration=args.duration, workers=args.workers,
        hosts=args.hosts)
    return _campaign_summary(result)


def _load_topology(path: str):
    """``--topology FILE`` → a compiled Placement (compile errors are
    structured and fatal)."""
    from repro.parallel.topology import FarmTopology

    with open(path, "r", encoding="utf-8") as handle:
        return FarmTopology.from_dict(json.load(handle)).compile()


def _run_streaming_farm(args) -> dict:
    from repro.parallel import Campaign, run_campaign

    hosts = args.hosts
    if args.topology:
        placement = _load_topology(args.topology)
        campaign = placement.campaign(
            "repro.parallel.tasks:streaming_farm_shard",
            params={"duration": args.duration,
                    "journal": bool(getattr(args, "journal", None))},
            base_seed=args.seed)
        # The compiled placement names the worker agents; an explicit
        # --hosts still wins (e.g. re-running a placement locally).
        hosts = hosts or (placement.endpoints() or None)
    else:
        campaign = Campaign.seed_sweep(
            "streaming-farm-sweep",
            "repro.parallel.tasks:streaming_farm_shard",
            params={"subfarms": args.subfarms,
                    "inmates": args.inmates_per,
                    "duration": args.duration,
                    # --journal turns shard journaling on so the
                    # campaign merge has journals to fold (determinism
                    # digests are unchanged either way).
                    "journal": bool(getattr(args, "journal", None))},
            seeds=args.seeds,
            count=None if args.seeds is not None else args.count,
            base_seed=args.seed)
    return _campaign_summary(run_campaign(
        campaign, workers=args.workers, hosts=hosts))


def _run_smtp_strictness(args) -> dict:
    from repro.experiments.smtp_strictness import run_matrix

    matrix = run_matrix(duration=args.duration, seed=args.seed,
                        workers=args.workers, hosts=args.hosts)
    return {
        "experiment": "smtp-strictness",
        "duration": args.duration,
        "cells": {
            f"{family}/{strictness}": {
                "sessions": cell.sessions,
                "data_transfers": cell.data_transfers,
                "content_ratio": round(cell.content_ratio, 4),
            }
            for (family, strictness), cell in sorted(matrix.items())
        },
    }


def _run_containment_tradeoff(args) -> dict:
    from repro.experiments.containment_tradeoff import run_all_regimes

    regimes = run_all_regimes(duration=args.duration, seed=args.seed,
                              workers=args.workers, hosts=args.hosts)
    return {
        "experiment": "containment-tradeoff",
        "duration": args.duration,
        "regimes": {
            name: {
                "behaviour_score": result.behaviour_score,
                "harm_score": result.harm_score,
                "families_active": result.families_active,
                "spam_harvested": result.spam_harvested,
                "inmates_blacklisted": result.inmates_blacklisted,
            }
            for name, result in sorted(regimes.items())
        },
    }


def _run_fault_matrix(args) -> dict:
    from repro.experiments.fault_matrix import run_matrix, summarize

    result = run_matrix(seeds=args.seeds, base_seed=args.seed,
                        duration=args.duration, workers=args.workers,
                        timeout=600.0, hosts=args.hosts)
    return summarize(result)


def _run_hostile_traffic(args) -> dict:
    from repro.experiments.hostile_traffic import run_hostile_traffic

    return run_hostile_traffic(seed=args.seed, duration=args.duration)


EXPERIMENTS = {
    "gateway-load-sweep": (
        _run_gateway_load_sweep,
        "seed sweep of §7.2 gateway-load farm runs (scalability)",
        {"duration": 120.0, "seed": 6},
    ),
    "streaming-farm": (
        _run_streaming_farm,
        "seed sweep of streaming whole-farm runs (the parallel "
        "benchmark workload)",
        {"duration": 120.0, "seed": 11},
    ),
    "smtp-strictness": (
        _run_smtp_strictness,
        "§7.1 sink strictness × spambot dialect matrix",
        {"duration": 600.0, "seed": 11},
    ),
    "containment-tradeoff": (
        _run_containment_tradeoff,
        "§3/§8 behaviour-vs-harm regimes over the mixed population",
        {"duration": 900.0, "seed": 77},
    ),
    "hostile-traffic": (
        _run_hostile_traffic,
        "malice-policy sweep under a deterministic hostile-frame "
        "stream (docs/HARDENING.md)",
        {"duration": 120.0, "seed": 11},
    ),
    "fault-matrix": (
        _run_fault_matrix,
        "chaos scenarios × seeds over resilient farm runs "
        "(docs/RESILIENCE.md)",
        {"duration": 120.0, "seed": 11},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list runnable experiments")
    for name, (_, help_text, defaults) in EXPERIMENTS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--workers", type=int, default=1,
                         help="worker processes (1 = serial in-process)")
        cmd.add_argument("--hosts", default=None, metavar="H:P,H:P",
                         help="comma-separated worker-agent endpoints "
                              "(python -m repro.parallel.worker); "
                              "shards dispatch over TCP instead of "
                              "the local pool")
        cmd.add_argument("--topology", metavar="FILE", default=None,
                         help="compile a FarmTopology JSON file into "
                              "a placement and derive the campaign "
                              "from it (streaming-farm only)")
        cmd.add_argument("--seeds", type=parse_seeds, default=None,
                         metavar="A..B",
                         help="inclusive seed range or comma list")
        cmd.add_argument("--count", type=int, default=8,
                         help="shards when --seeds is not given "
                              "(sweep experiments)")
        cmd.add_argument("--seed", type=int, default=defaults["seed"],
                         help="base seed")
        cmd.add_argument("--duration", type=float,
                         default=defaults["duration"],
                         help="virtual seconds per farm run")
        cmd.add_argument("--subfarms", type=int, default=3)
        cmd.add_argument("--inmates-per", type=int, default=4)
        cmd.add_argument("--indent", type=int, default=2)
        cmd.add_argument("--snapshot", metavar="PATH",
                         help="write the merged telemetry snapshot "
                              "to this JSON file")
        cmd.add_argument("--journal", metavar="PATH",
                         help="write the merged decision journal to "
                              "this JSON file (enables shard "
                              "journaling where supported)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        for name, (_, help_text, _defaults) in EXPERIMENTS.items():
            print(f"{name:<22} {help_text}")
        return 0
    runner = EXPERIMENTS[args.command][0]
    summary = runner(args)
    _export_artifacts(args, summary)
    print(json.dumps(summary, indent=args.indent, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
