"""``benchmarks/pairs.py``: each side's runs go to the ledger's own gate
(``benchmarks/ledger/compare.py``) as a ``run.py --out`` result set, and
the pairs the change won are counted with ties for neither."""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                "benchmarks"))
import pairs  # noqa: E402

DECLARED = [{"name": "peak_rss_mb", "unit": "MiB", "better": "lower",
             "bound": 0.1},
            {"name": "ops_per_s", "unit": "1/s", "better": "higher",
             "bound": 0.2}]


def _run(peak_rss_mb: float, ops_per_s: float, failed: int = 0) -> dict:
    return {"correct": not failed, "attempted": 100, "failed": failed,
            "metrics": {"peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
                        "ops_per_s": {"value": ops_per_s, "unit": "1/s"}}}


def _gate(base: list, change: list) -> int:
    return pairs.compare(
        pairs.result_set("a" * 40, "scan_journaled", 11, 8.0, base),
        pairs.result_set("b" * 40, "scan_journaled", 11, 8.0, change),
        DECLARED)


BASE = [_run(70.0, 100.0), _run(70.1, 101.0), _run(69.9, 99.0),
        _run(70.0, 100.0)]


def test_wins_count_ties_for_neither():
    change = [_run(60.0, 100.0), _run(60.1, 102.0), _run(70.5, 98.0),
              _run(59.9, 100.0)]
    assert pairs.wins(DECLARED, BASE, change) == [
        ("peak_rss_mb", "lower", 3), ("ops_per_s", "higher", 1)]


def test_a_win_and_an_unmoved_metric_pass_the_gate(capsys):
    change = [_run(60.0, 100.5), _run(60.1, 99.5), _run(59.9, 100.0),
              _run(60.0, 101.0)]
    assert _gate(BASE, change) == 0
    out = capsys.readouterr().out
    assert "gate ok" in out and "regressed" not in out


def test_a_resolved_regression_beyond_its_bound_fails_the_gate(capsys):
    change = [_run(70.0, 70.0), _run(70.1, 71.0), _run(69.9, 69.0),
              _run(70.0, 70.0)]
    assert _gate(BASE, change) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "GATE FAILED" in out


def test_a_failed_operation_fails_the_gate(capsys):
    assert _gate(BASE, BASE[:3] + [_run(70.0, 100.0, failed=1)]) == 1
    assert "FAILED" in capsys.readouterr().out
