"""One timed run of one workload, in a fresh interpreter.

``run.py`` starts this file as a subprocess (``PYTHONHASHSEED=0``,
``PYTHONDONTWRITEBYTECODE=1``) so set-up time and peak RSS belong to
exactly one run.  It builds the workload, runs it in calibrated slices
(or hands it to ``run_campaign``), checks the outputs, and prints one
JSON object on its last stdout line.  With ``--trace 1`` the span
recorder is installed before the farm is built and the ledger rides
along.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

import timing

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                "src"))


def setup_record(args, ready: float) -> dict:
    """Spawn → ready-to-run, less the start-up calibration, with the
    two kernel timings that bracket it."""
    return {"setup_raw_s": ready - args.t0 - args.start_c,
            "setup_c": [args.start_c, timing.calibrate()]}


def run_farm(args) -> dict:
    import farmrun

    job = farmrun.FarmRun(args.workload, args.seed, args.seconds,
                          trace=bool(args.trace))
    out = setup_record(args, perf_counter())
    if args.setup_only:
        job.close()
        return out
    out.update(job.execute(args.slices))
    out["wall_raw_s"] = sum(out["slices"]["w"])
    return out


def run_campaign_workload(args) -> dict:
    import checks
    import farmrun
    import layers
    import tracer
    from repro.parallel import host_info, pool

    # The farms live in the workers, which trace themselves; the
    # master records only the parallel.* layers.
    rec = tracer.Recorder() if args.trace else None
    undo = tracer.install(rec, only="parallel.") if rec else []
    try:
        campaign = farmrun.build_campaign(args.seed, args.seconds,
                                          trace=bool(rec))
        workers = min(2, host_info()["sched_cpus"] or 1)
        out = setup_record(args, perf_counter())
        if args.setup_only:
            return out

        run = pool.run_campaign
        if rec:
            run = rec.wrap("parallel.pool", "run_campaign", run)
            rec.enabled = True
        started = perf_counter()
        result = run(campaign, workers=workers, scheduler="steal")
        wall_raw_s = perf_counter() - started
        if rec:
            rec.enabled = False
    finally:
        tracer.uninstall(undo)

    runs = [payload["run"] for payload in result.payloads() if payload]
    merged = result.merged
    exact = {"digest": result.digest}
    exact.update({key: int(value)
                  for key, value in merged["metrics"].items()})
    out.update({
        "wall_raw_s": wall_raw_s,
        "slices": {key: [x for run in runs for x in run["slices"][key]]
                   for key in ("w", "c", "ops")},
        "peak_rss_mb": farmrun.peak_rss_mb(),
        "payload_bytes": sum(run["payload_bytes"] for run in runs),
        "flows": exact["flows_logged"],
        "checks": checks.check_campaign(result, farmrun.SHARDS),
        "exact": exact,
        "workers": workers,
    })
    if rec:
        out["ledger"] = layers.merge_additive(
            [rec.to_dict()] + [run["ledger"] for run in runs])
        out["raw"] = layers.merge_additive([run["raw"] for run in runs])
        out["campaign"] = {
            "workers": workers,
            "scheduler": {key: value for key, value in
                          (merged.get("scheduler") or {}).items()
                          if isinstance(value, int)},
            "shard_seconds": [r.seconds for r in result.shard_results],
            "bytes_out": sum(len(json.dumps(spec.to_dict()))
                             for spec in campaign),
            "bytes_in": sum(len(json.dumps(payload))
                            for payload in result.payloads() if payload),
        }
        out["chrome_trace"] = rec.chrome_trace()
    return out


def main(argv=None) -> int:
    # Host speed as this process starts, before anything heavy loads.
    start_c = timing.calibrate()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="perf_counter() of the parent at spawn")
    parser.add_argument("--slices", type=int, default=100)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    args.start_c = start_c

    if args.workload == "campaign_sweep":
        out = run_campaign_workload(args)
    else:
        out = run_farm(args)
    from repro.parallel import host_info

    host = host_info()
    out.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "host_cpus": host["host_cpus"], "sched_cpus": host["sched_cpus"],
        "workers": out.get("workers", 1),
        "python": sys.version.split()[0],
        "hashseed": os.environ.get("PYTHONHASHSEED"),
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
