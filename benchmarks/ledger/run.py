"""Layer ledger: the end-to-end benchmark of the GQ farm.

Five closed-loop workloads (README.md says why each exists), every
timed run in a fresh subprocess, tracing off for the end-to-end
metrics and one traced run per workload for the per-layer ledger.

    python benchmarks/ledger/run.py --seed 11            # whole suite
    python benchmarks/ledger/run.py --selftest           # determinism
    python benchmarks/ledger/run.py --workload flow_churn \\
        --seed 11 --seconds 8 --trace 0                  # one run

The one-run form is what ``BENCHMARK.json`` names: it prints a single
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``) on
its last line — every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.  Exit status is non-zero when an
output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import layers
import timing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT = 170.0


class RunFailed(RuntimeError):
    """A child run died or printed no result."""


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, seconds: float, trace: int = 0,
          extra: Tuple[str, ...] = (), hashseed: str = "0") -> dict:
    """One ``worker.py`` run; returns its result object."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(float(seconds)), "--trace", str(trace),
               "--t0", repr(perf_counter()), *extra]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload}: no result in {CHILD_TIMEOUT:.0f}s") \
            from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RunFailed(f"{workload}: worker exited {done.returncode}\n"
                        f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def setup_seconds(workload: str, seed: int, seconds: float,
                  first: dict, samples: int) -> float:
    """Median set-up time at reference speed over ``samples`` fresh
    processes (subprocess start → ready to run): the timed run's own
    plus build-only children."""
    runs = [first] + [
        spawn(workload, seed, seconds, extra=("--setup-only",))
        for _ in range(samples - 1)]
    return statistics.median(
        timing.normalise(run["setup_raw_s"], *run["setup_c"])
        for run in runs)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def percentile(weighted: List[Tuple[float, float]], p: float) -> float:
    """Weighted nearest-rank percentile of ``(value, weight)`` pairs:
    the smallest value with at least ``p`` percent of the weight at or
    below it."""
    ordered = sorted(weighted)
    need = p / 100.0 * sum(weight for _value, weight in ordered)
    seen = 0.0
    for value, weight in ordered:
        seen += weight
        if seen >= need:
            return value
    return ordered[-1][0]


def supported_percentile(count: int, beyond: int = 10) -> int:
    """The highest whole percentile that leaves at least ``beyond``
    of ``count`` samples above it (0 when none does)."""
    return max(0, (count - beyond) * 100 // count) if count else 0


def clock(run: dict) -> dict:
    """A run's timed region: raw wall seconds, the host's slowdown
    against reference speed over its slices, and the two divided."""
    slices = run["slices"]
    slow = timing.slowdown(slices)
    return {"wall_raw_s": run["wall_raw_s"], "slowdown": slow,
            "wall_s": run["wall_raw_s"] / slow}


def pct_samples(slices: dict) -> List[Tuple[float, float]]:
    """``(ms per 1% of the run's operations, operations)`` for every
    slice that completed any, at reference speed."""
    total = sum(slices["ops"])
    return [(seconds / ops * total / 100.0 * 1000.0, ops)
            for seconds, ops in zip(timing.normalised(slices),
                                    slices["ops"]) if ops]


def end_to_end(run: dict, setup: float) -> Dict[str, float]:
    checks = run["checks"]
    wall = clock(run)["wall_s"]
    samples = pct_samples(run["slices"])
    return {
        "setup_s": setup,
        "wall_s": wall,
        "ops_per_s": (checks["attempted"] - checks["failed"]) / wall,
        "flows_per_s": run["flows"] / wall,
        "goodput_mbps": run["payload_bytes"] * 8 / wall / 1e6,
        "pct_ms_p50": percentile(samples, 50),
        "pct_ms_p75": percentile(samples, 75),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(traced: dict, untraced_wall_s: float) -> Dict[str, float]:
    samples = pct_samples(traced["slices"])
    return layers.per_layer_metrics(
        traced["ledger"], traced["raw"],
        dict(clock(traced), untraced_wall_s=untraced_wall_s,
             # ~100 slices support exactly p90; smoke-sized runs with
             # fewer report the highest percentile they do support.
             pct_ms_tail=percentile(samples, min(
                 90, supported_percentile(len(samples))))),
        traced.get("campaign"))


def passed(run: dict) -> bool:
    return run["checks"]["contained"] and not run["checks"]["failed"]


def write_ledger(traced: dict, metrics: Dict[str, float]) -> None:
    os.makedirs(OUT, exist_ok=True)
    name = traced["workload"]
    with open(os.path.join(OUT, f"{name}.ledger.json"), "w") as handle:
        json.dump({"workload": name, "seed": traced["seed"],
                   "seconds": traced["seconds"],
                   "per_layer": metrics, "ledger": traced["ledger"],
                   "raw": traced["raw"]}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    with open(os.path.join(OUT, f"{name}.trace.json"), "w") as handle:
        json.dump({"traceEvents": traced["chrome_trace"]}, handle)


# ----------------------------------------------------------------------
# One run (the BENCHMARK.json command)
# ----------------------------------------------------------------------
def one_run(args) -> int:
    spec = declared()
    untraced = spawn(args.workload, args.seed, args.seconds)
    ok = passed(untraced)
    result = untraced
    if args.trace:
        traced = spawn(args.workload, args.seed, args.seconds, trace=1)
        values = per_layer(traced, clock(untraced)["wall_s"])
        write_ledger(traced, values)
        # Tracing must observe, never perturb.
        ok = ok and passed(traced) and traced["exact"] == untraced["exact"]
        names = spec["per_layer"]
        result = traced
    else:
        values = end_to_end(untraced, setup_seconds(
            args.workload, args.seed, args.seconds, untraced, samples=7))
        names = spec["end_to_end"]
    for note in result["checks"]["notes"]:
        print(f"check: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": ok,
        "attempted": result["checks"]["attempted"],
        "failed": result["checks"]["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in names},
    }))
    return 0 if ok else 1


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def commit() -> str:
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def suite(args) -> int:
    spec = declared()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    report: dict = {"schema": "gq.ledger/1", "workloads": {}}
    failed_any = False
    host: Optional[dict] = None
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = [spawn(name, args.seed, args.seconds)
                for _ in range(args.repeats)]
        rows = [end_to_end(run, setup_seconds(
            name, args.seed, args.seconds, run, samples=3))
            for run in runs]
        median = {key: statistics.median(row[key] for row in rows)
                  for key in rows[0]}
        traced = spawn(name, args.seed, args.seconds, trace=1)
        layer_values = per_layer(traced, median["wall_s"])
        write_ledger(traced, layer_values)
        exact_stable = all(run["exact"] == runs[0]["exact"]
                           for run in runs + [traced])
        ok = exact_stable and all(passed(run) for run in runs + [traced])
        failed_any = failed_any or not ok
        checks = runs[0]["checks"]
        report["workloads"][name] = {
            "runs": rows, "median": median,
            "attempted": checks["attempted"], "failed": checks["failed"],
            "failed_share": checks["failed"] / checks["attempted"],
            "contained": all(run["checks"]["contained"] for run in runs),
            "notes": sorted({note for run in runs + [traced]
                             for note in run["checks"]["notes"]}),
            "exact": runs[0]["exact"], "exact_stable": exact_stable,
            "workers": runs[0]["workers"],
            "per_layer": layer_values,
        }
        host = host or {key: runs[0][key] for key in
                        ("host_cpus", "sched_cpus", "python", "hashseed")}
        print(f"\n== {name}: {entry['why']}")
        print(f"   workers={runs[0]['workers']} attempted="
              f"{checks['attempted']} failed={checks['failed']} "
              f"exact_stable={exact_stable} "
              f"{'OK' if ok else 'FAILED'}")
        for key, value in median.items():
            spread = (max(r[key] for r in rows) - min(r[key] for r in rows))
            print(f"   {key:<14}{value:>14.4f} {units[key]:<6}"
                  f" (range {spread / value:.1%} of median,"
                  f" n={len(rows)})")
        for key, value in runs[0]["exact"].items():
            print(f"   {key:<14}{value!s:>14}")
        for key, value in layer_values.items():
            if value:
                print(f"   {key:<44}{value:>16.6g} {units[key]}")
    report["host"] = dict(host, seed=args.seed, seconds=args.seconds,
                          repeats=args.repeats, commit=commit())
    path = args.out or os.path.join(OUT, "results.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {path}")
    return 1 if failed_any else 0


# ----------------------------------------------------------------------
# Determinism self-test
# ----------------------------------------------------------------------
def selftest(args) -> int:
    """Smoke-sized runs: same seed twice, traced vs untraced, 100
    calibrated slices vs one, a second ``PYTHONHASHSEED``, a second
    seed — all must pass their checks, and all but the last must agree
    on every exact-repeat count and digest."""
    seconds = 0.25
    failures: List[str] = []
    names = [entry["name"] for entry in declared()["workloads"]]

    def expect(label: str, condition: bool) -> None:
        print(f"  {'ok  ' if condition else 'FAIL'} {label}")
        if not condition:
            failures.append(label)

    firsts = {}
    for name in names:
        print(name)
        first = firsts[name] = spawn(name, args.seed, seconds)
        expect("checks pass", passed(first))
        again = spawn(name, args.seed, seconds)
        expect("same seed, same counts and digest",
               again["exact"] == first["exact"])
        traced = spawn(name, args.seed, seconds, trace=1)
        expect("tracing does not perturb",
               traced["exact"] == first["exact"] and passed(traced))
        values = per_layer(traced, clock(first)["wall_s"])
        expect("ledger complete (self time sums to the root spans)",
               values["trace.completeness_err"] <= 0.02)
        if name != "campaign_sweep":    # its shards slice themselves
            whole = spawn(name, args.seed, seconds,
                          extra=("--slices", "1"))
            expect("slicing and calibration do not perturb",
                   whole["exact"] == first["exact"])
        other = spawn(name, args.seed + 1, seconds)
        expect(f"seed {args.seed + 1} passes its checks", passed(other))
        expect(f"seed {args.seed + 1} differs",
               other["exact"] != first["exact"])
    print("flow_churn")
    rehashed = spawn("flow_churn", args.seed, seconds, hashseed="1")
    expect("same counts and digest under PYTHONHASHSEED=1",
           rehashed["exact"] == firsts["flow_churn"]["exact"]
           and passed(rehashed))
    print("selftest", "FAILED" if failures else "OK")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one run of this workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="size each run for about this many seconds "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", help="suite result file")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = float(declared()["run_seconds"])
        if args.selftest:
            return selftest(args)
        if args.workload:
            return one_run(args)
        return suite(args)
    except RunFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
