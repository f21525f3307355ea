"""Noise-aware gate over two ledger result sets (``run.py --out``).

    python benchmarks/ledger/compare.py A.json B.json

A is the parent, B the change.  Per workload and end-to-end metric it
compares medians against the bound fixed in ``BENCHMARK.json``:

``ok``          B's median is not worse than A's by more than the bound
``regressed``   it is, and the runs resolve the difference
``unresolved``  either set's run-to-run spread is wider than the
                bound, so the sets cannot tell — unless every run of B
                reads better than every run of A, which is ``ok``

Every ratio is printed with its base.  Exit status: 1 on any
regression, on any failed operation, or on an exact-repeat count or
digest that differs between two sets of the *same* commit; 2 when the
sets are not comparable (different seed, size, cpus or workers).
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List, Tuple

from run import declared

COMPARABLE = ("seed", "seconds", "host_cpus", "sched_cpus", "python")


def spread(values: List[float]) -> float:
    """Run-to-run spread as a share of the median: interquartile
    distance from four runs up, full range below that."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / median
    return (max(values) - min(values)) / median


def judge(a: List[float], b: List[float], better: str,
          bound: float) -> Tuple[str, float]:
    """``(status, worse_by)``: how much worse B's median is than A's,
    as a share of A's (negative = better)."""
    base = statistics.median(a)
    change = (statistics.median(b) - base) / base
    worse_by = change if better == "lower" else -change
    if max(spread(a), spread(b)) > bound:
        all_better = (max(b) < min(a) if better == "lower"
                      else min(b) > max(a))
        return ("ok" if all_better else "unresolved"), worse_by
    return ("regressed" if worse_by > bound else "ok"), worse_by


def incomparable(a: dict, b: dict) -> List[str]:
    reasons = [f"{key}: {a['host'].get(key)!r} vs {b['host'].get(key)!r}"
               for key in COMPARABLE
               if a["host"].get(key) != b["host"].get(key)]
    if set(a["workloads"]) != set(b["workloads"]):
        reasons.append("workload sets differ")
    for name in set(a["workloads"]) & set(b["workloads"]):
        wa, wb = a["workloads"][name], b["workloads"][name]
        if wa["workers"] != wb["workers"]:
            reasons.append(f"{name}: workers {wa['workers']} vs "
                           f"{wb['workers']}")
    return reasons


def compare(a: dict, b: dict, metrics: List[dict]) -> int:
    reasons = incomparable(a, b)
    if reasons:
        print("refusing to compare:\n  " + "\n  ".join(reasons))
        return 2
    same_commit = (a["host"].get("commit") == b["host"].get("commit")
                   and a["host"].get("commit") not in (None, "unknown"))
    status_code = 0
    print(f"A = {a['host'].get('commit')}  B = {b['host'].get('commit')}"
          f"  seed {a['host']['seed']}  size {a['host']['seconds']}s"
          f"  {a['host']['sched_cpus']} cpus")
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        print(f"\n{name}  (workers={wa['workers']})")
        for which, w in (("A", wa), ("B", wb)):
            if w["failed"] or not w["contained"] or not w["exact_stable"]:
                print(f"  {which}: failed={w['failed']} contained="
                      f"{w['contained']} exact_stable={w['exact_stable']}"
                      "  -> FAILED")
                status_code = 1
        if wa["exact"] != wb["exact"]:
            differing = sorted(key for key in set(wa["exact"]) |
                               set(wb["exact"])
                               if wa["exact"].get(key) != wb["exact"].get(key))
            print(f"  exact-repeat counts differ: {differing}"
                  + ("  -> FAILED (same commit)" if same_commit
                     else "  (informational across commits)"))
            if same_commit:
                status_code = 1
        for metric in metrics:
            key = metric["name"]
            runs_a = [row[key] for row in wa["runs"]]
            runs_b = [row[key] for row in wb["runs"]]
            status, worse_by = judge(runs_a, runs_b, metric["better"],
                                     metric["bound"])
            if status == "regressed":
                status_code = 1
            base = statistics.median(runs_a)
            print(f"  {key:<14}{base:>12.4f} -> "
                  f"{statistics.median(runs_b):>12.4f} {metric['unit']:<7}"
                  f" worse by {worse_by:+7.2%} of {base:.4g}"
                  f"  bound {metric['bound']:.0%}"
                  f"  spread A {spread(runs_a):.1%} B {spread(runs_b):.1%}"
                  f"  {status}")
    print("\n" + ("GATE FAILED" if status_code else "gate ok"))
    return status_code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as handle:
        a = json.load(handle)
    with open(argv[1]) as handle:
        b = json.load(handle)
    return compare(a, b, declared()["end_to_end"])


if __name__ == "__main__":
    sys.exit(main())
