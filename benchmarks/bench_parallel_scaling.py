"""Parallel campaign scaling under the work-stealing scheduler.

Measures the :mod:`repro.parallel` runner on seed sweeps of complete
streaming-farm runs (the ``streaming_farm_shard`` reference task) at
1, 2, 4, and 8 workers, and asserts the determinism contract: the
merged campaign digest at every worker count, over every transport,
is byte-identical to the serial run of the same
:class:`~repro.parallel.Campaign` spec.

Recorded sweeps (see docs/PARALLELISM.md for why each exists):

* ``campaign`` — the headline: each shard is a farm simulation plus a
  ``detonation_wait`` of real wall-clock time modelling the
  operational cost that dominates production campaigns (the paper's
  §6.3 multi-hour malware runs and §7.3 6-10 minute raw-iron reimage
  cycles are wall time during which the coordinating process only
  waits).  Parallelism overlaps those waits regardless of core count.
* ``cpu_bound`` — the same sweep with no wait: pure simulation CPU.
  Its speedup tracks the host's core count (recorded alongside), so a
  single-core CI box honestly shows ~1x here.
* ``straggler`` — a 16-shard sweep where two shards model slow
  detonations (a straggling subfarm); work stealing drains around
  them.  (The curve against the contiguous pre-partition it replaced
  is kept as a dated table in docs/PARALLELISM.md.)
* ``socket`` — digest parity of the same campaign dispatched to a
  localhost ``python -m repro.parallel.worker`` agent over TCP.

``--quick`` (CI smoke) runs a small sweep, asserts serial-vs-parallel
digest parity and merged-telemetry parity, checks that a killed worker
fails only its shard, and exits non-zero on any violation.
``--quick-socket`` does the same over a localhost worker agent
(SocketTransport), including crash isolation across the socket.

The full sweep refuses (exit 2, nothing written) on a host with fewer
schedulable CPUs than its largest worker count: what it would record
there is contention, not scaling.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py                # writes BENCH_parallel.json
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --quick        # CI smoke (local pool)
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --quick-socket # CI smoke (TCP agent)
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.parallel import Campaign, ShardSpec, run_campaign

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FARM_TASK = "repro.parallel.tasks:streaming_farm_shard"


def build_sweep(shards: int, base_seed: int, detonation_wait: float,
                subfarms: int, inmates: int, rounds: int,
                duration: float) -> Campaign:
    return Campaign.seed_sweep(
        "parallel-scaling",
        FARM_TASK,
        params={
            "subfarms": subfarms,
            "inmates": inmates,
            "rounds": rounds,
            "duration": duration,
            "detonation_wait": detonation_wait,
        },
        count=shards,
        base_seed=base_seed,
    )


def build_straggler_sweep(shards: int, base_seed: int,
                          straggler_wait: float, base_wait: float,
                          stragglers: int = 2) -> Campaign:
    """A sweep whose first ``stragglers`` shards model slow
    detonations."""
    grid = [
        {
            "subfarms": 1, "inmates": 1, "rounds": 5, "duration": 30.0,
            "detonation_wait": straggler_wait if index < stragglers
            else base_wait,
        }
        for index in range(shards)
    ]
    return Campaign.config_sweep("straggler-sweep", FARM_TASK, grid,
                                 base_seed=base_seed)


def run_sweep(campaign: Campaign, worker_counts) -> dict:
    """Run the same campaign at each worker count; verify digests."""
    runs = {workers: run_campaign(campaign, workers=workers)
            for workers in worker_counts}
    serial = runs[worker_counts[0]]
    assert serial.workers == 1, "first worker count must be the serial run"
    out = {
        "digest": serial.digest,
        "spec_digest": serial.spec_digest,
        "digest_parity": {},
        "workers": {},
    }
    for workers, result in runs.items():
        match = result.digest == serial.digest
        out["digest_parity"][str(workers)] = match
        out["workers"][str(workers)] = {
            "wall_seconds": round(result.wall_seconds, 3),
            "ok": result.ok,
            "failures": len(result.failures),
            "speedup": round(
                serial.wall_seconds / result.wall_seconds, 3)
            if result.wall_seconds else 0.0,
        }
    out["parity_ok"] = all(out["digest_parity"].values())
    out["telemetry_parity"] = all(
        runs[w].merged.get("telemetry")
        == serial.merged.get("telemetry")
        for w in worker_counts
    )
    return out


def run_socket_parity(workers: int = 2, shards: int = 4,
                      base_seed: int = 17) -> dict:
    """The same campaign through a localhost TCP worker agent must
    produce the byte-identical digest the serial run does."""
    from repro.parallel import local_agents

    campaign = build_sweep(shards, base_seed, detonation_wait=0.0,
                           subfarms=1, inmates=1, rounds=5,
                           duration=30.0)
    serial = run_campaign(campaign, workers=1)
    with local_agents(1) as endpoints:
        sock = run_campaign(campaign, workers=workers, hosts=endpoints)
    return {
        "endpoints": 1,
        "workers": workers,
        "digest_parity": sock.digest == serial.digest,
        "telemetry_parity": sock.merged.get("telemetry")
        == serial.merged.get("telemetry"),
        "ok": sock.ok,
        "wall_seconds": round(sock.wall_seconds, 3),
        "hosts": sock.merged.get("hosts"),
    }


def run_crash_isolation(workers: int = 2, hosts=None) -> dict:
    """A campaign with one worker-killing shard must complete, with
    exactly that shard reporting a structured crash — over any
    transport."""
    specs = [
        ShardSpec(0, "repro.parallel.tasks:noop_shard", {"seed": 1}),
        ShardSpec(1, "repro.parallel.tasks:crashing_shard", {"seed": 2}),
        ShardSpec(2, "repro.parallel.tasks:noop_shard", {"seed": 3}),
        ShardSpec(3, "repro.parallel.tasks:noop_shard", {"seed": 4}),
    ]
    result = run_campaign(Campaign("crash-isolation", specs),
                          workers=workers, hosts=hosts)
    failures = result.failures
    ok = (
        len(result.shard_results) == 4
        and len(failures) == 1
        and failures[0]["shard"] == 1
        and failures[0]["kind"] == "crash"
        and all(r.ok for r in result.shard_results if r.index != 1)
    )
    return {"ok": ok, "failures": failures}


def _quick(args, socket_mode: bool) -> int:
    campaign = build_sweep(4, args.seed, detonation_wait=0.0,
                           subfarms=2, inmates=2, rounds=40,
                           duration=90.0)
    workers = max(2, args.workers)
    if socket_mode:
        from repro.parallel import local_agents

        serial = run_campaign(campaign, workers=1)
        with local_agents(1) as endpoints:
            sock = run_campaign(campaign, workers=workers,
                                hosts=endpoints)
            crash = run_crash_isolation(workers=workers,
                                        hosts=endpoints)
        sweep = {
            "digest": serial.digest,
            "digest_parity": {str(workers):
                              sock.digest == serial.digest},
            "parity_ok": sock.digest == serial.digest,
            "telemetry_parity": sock.merged.get("telemetry")
            == serial.merged.get("telemetry"),
            "transport": "socket",
        }
    else:
        worker_counts = [1] if args.workers <= 1 else [1, args.workers]
        sweep = run_sweep(campaign, worker_counts)
        crash = run_crash_isolation(workers=workers) \
            if args.workers > 1 else {"ok": True, "skipped": "serial"}
    print(json.dumps({"sweep": sweep, "crash_isolation": crash},
                     indent=2))
    if not sweep["parity_ok"]:
        print("FAIL: serial vs parallel campaign digests differ",
              file=sys.stderr)
        return 1
    if not sweep["telemetry_parity"]:
        print("FAIL: merged telemetry snapshots differ",
              file=sys.stderr)
        return 1
    if not crash["ok"]:
        print("FAIL: crash isolation violated", file=sys.stderr)
        return 1
    print("parallel determinism OK"
          + (" (socket transport)" if socket_mode else ""))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="parity + crash-isolation smoke (CI); "
                             "no JSON file")
    parser.add_argument("--quick-socket", action="store_true",
                        help="the --quick smoke dispatched to a "
                             "localhost worker agent over TCP")
    parser.add_argument("--workers", type=int, default=2,
                        help="quick-mode parallel worker count "
                             "(1 exercises only the serial fallback)")
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--subfarms", type=int, default=2)
    parser.add_argument("--inmates", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--duration", type=float, default=200.0)
    parser.add_argument("--detonation-wait", type=float, default=3.5,
                        help="modelled wall-clock detonation/reimage "
                             "time per shard (campaign sweep)")
    parser.add_argument("--straggler-wait", type=float, default=1.2,
                        help="detonation wait of the two straggler "
                             "shards (straggler sweep)")
    parser.add_argument("--output", default=os.path.join(
        REPO_ROOT, "BENCH_parallel.json"))
    args = parser.parse_args(argv)

    if args.quick or args.quick_socket:
        return _quick(args, socket_mode=args.quick_socket)

    worker_counts = [1, 2, 4, 8]
    sched_cpus = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if sched_cpus is None or sched_cpus < max(worker_counts):
        # A sweep past the host's CPUs records contention, not scaling.
        print(f"refusing to record scaling: {sched_cpus} schedulable "
              f"cpus, the sweep runs up to {max(worker_counts)} workers "
              f"(--quick and --quick-socket run anywhere)")
        return 2
    farm_params = dict(subfarms=args.subfarms, inmates=args.inmates,
                       rounds=args.rounds, duration=args.duration)

    campaign_sweep = run_sweep(
        build_sweep(args.shards, args.seed,
                    detonation_wait=args.detonation_wait, **farm_params),
        worker_counts)
    cpu_sweep = run_sweep(
        build_sweep(args.shards, args.seed, detonation_wait=0.0,
                    **farm_params),
        worker_counts)
    straggler = run_sweep(
        build_straggler_sweep(16, args.seed,
                              straggler_wait=args.straggler_wait,
                              base_wait=0.1),
        worker_counts)
    socket_parity = run_socket_parity()
    crash = run_crash_isolation()

    result = {
        "benchmark": "bench_parallel_scaling",
        "config": {
            "shards": args.shards,
            "seed": args.seed,
            "detonation_wait": args.detonation_wait,
            "straggler_wait": args.straggler_wait,
            "host_cpus": os.cpu_count(),
            "sched_cpus": sched_cpus,
            "python": sys.version.split()[0],
            **farm_params,
        },
        "campaign": campaign_sweep,
        "cpu_bound": cpu_sweep,
        "straggler": straggler,
        "socket": socket_parity,
        "crash_isolation": crash,
        "speedup_at_4_workers": campaign_sweep["workers"]["4"]["speedup"],
    }
    print(json.dumps(result, indent=2))
    with open(args.output, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.output}")

    ok = (campaign_sweep["parity_ok"] and cpu_sweep["parity_ok"]
          and campaign_sweep["telemetry_parity"]
          and straggler["parity_ok"]
          and socket_parity["digest_parity"] and socket_parity["ok"]
          and crash["ok"])
    if result["speedup_at_4_workers"] < 2.5:
        print(f"WARN: campaign speedup at 4 workers is "
              f"{result['speedup_at_4_workers']}x (< 2.5x target)",
              file=sys.stderr)
    if not ok:
        print("FAIL: determinism or isolation contract violated",
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
