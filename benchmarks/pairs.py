"""Alternating ledger pairs between two revisions of this repository.

    python benchmarks/pairs.py --workload scan_journaled --pairs 10
    python benchmarks/pairs.py --workload flow_churn --pairs 4 \\
        --base HEAD~1 --change HEAD --seed 12

Each revision is ``git archive``d into a temporary directory of its own,
so both sides run from fresh trees (no ``__pycache__``).  Then ``--pairs``
pairs of the ledger's one-run command (``benchmarks/ledger/run.py
--workload W --seed S --trace 0``, the command ``BENCHMARK.json`` names,
at its ``run_seconds``) run one after the other, alternating which side
goes first.  Each side's runs are gathered into the result set that
``run.py --out`` writes and judged by ``benchmarks/ledger/compare.py``
against the bounds in ``BENCHMARK.json`` (ok / regressed / unresolved);
below that verdict a table gives, per end-to-end metric, how many pairs
the change won (ties count for neither).  Exit status 1 when any run is
not ``correct`` or the gate fails, 2 when the sets are not comparable.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "ledger"))
from compare import compare  # noqa: E402


def checkout(revision: str, tree: str) -> str:
    """``git archive`` of ``revision`` unpacked as ``tree``."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", revision],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as handle:
        handle.extractall(tree, filter="data")
    return tree


def resolve(revision: str) -> str:
    return subprocess.run(["git", "-C", ROOT, "rev-parse", revision],
                          check=True, capture_output=True,
                          text=True).stdout.strip()


def run(tree: str, workload: str, seed: int) -> dict:
    """One untraced ledger run in ``tree``: its result object."""
    done = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "ledger", "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "error": done.stderr.strip()[-2000:]}
    return json.loads(lines[-1])


def result_set(commit: str, workload: str, seed: int, seconds: float,
               results: list) -> dict:
    """One side's runs in the shape ``run.py --out`` writes.  Both sides
    run on this host, so the host fields are this host's.  The one-run
    object folds containment into ``correct`` and carries no
    exact-repeat counts, so those read as unchanged."""
    return {
        "host": {"seed": seed, "seconds": seconds,
                 "host_cpus": os.cpu_count(),
                 "sched_cpus": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(), "commit": commit},
        "workloads": {workload: {
            "runs": [{name: metric["value"]
                      for name, metric in result["metrics"].items()}
                     for result in results],
            "failed": sum(result["failed"] for result in results),
            "contained": all(result["correct"] for result in results),
            "exact": {}, "exact_stable": True, "workers": None,
        }},
    }


def wins(metrics: list, base: list, change: list) -> list:
    """``(name, better, pairs the change won)`` per end-to-end metric."""
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                 for b, c in zip(base, change)]
        won = sum((c < b) if lower else (c > b) for b, c in pairs)
        rows.append((name, metric["better"], won))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    runs = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ledger-pairs-") as scratch:
        trees = {side: checkout(getattr(args, side),
                                os.path.join(scratch, side))
                 for side in runs}
        for index in range(args.pairs):
            order = ("base", "change") if index % 2 == 0 else (
                "change", "base")
            for side in order:
                result = run(trees[side], args.workload, args.seed)
                runs[side].append(result)
                print(f"pair {index + 1} {side}: correct="
                      f"{result.get('correct')}", file=sys.stderr)
    wrong = [(side, index + 1) for side, results in runs.items()
             for index, result in enumerate(results)
             if not result.get("correct")]
    for side, pair in wrong:
        print(f"NOT CORRECT: {side} run of pair {pair}", file=sys.stderr)
    if any("metrics" not in result
           for results in runs.values() for result in results):
        return 1
    seconds = float(declared["run_seconds"])
    status = compare(*(result_set(resolve(getattr(args, side)),
                                  args.workload, args.seed, seconds,
                                  runs[side]) for side in runs),
                     declared["end_to_end"])
    print(f"\npairs the change won of {args.pairs} (ties count for "
          f"neither):")
    for name, better, won in wins(declared["end_to_end"], runs["base"],
                                  runs["change"]):
        print(f"  {name:<14}{better:>7}  {won}/{args.pairs}")
    return 1 if wrong else status


if __name__ == "__main__":
    sys.exit(main())
