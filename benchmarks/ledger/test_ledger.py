"""Unit tests for the ledger's own machinery.

    python -m pytest benchmarks/ledger -q

Not part of the Tier-1 ``testpaths``: these test the benchmark, not
the farm.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import timing  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracer, "perf_counter", fake)
    return fake


def test_self_time_nested_recursive_and_raising(clock):
    rec = tracer.Recorder(sample_every=1)

    def leaf():
        clock.now += 1.0

    def boom():
        clock.now += 0.5
        raise KeyError("x")

    def branch(depth):
        clock.now += 2.0
        if depth:
            branch(depth - 1)        # recursion inside one layer
        leaf()

    def root():
        clock.now += 4.0
        branch(1)
        with pytest.raises(KeyError):
            boom()
        clock.now += 0.25

    leaf = rec.wrap("net.packet", "leaf", leaf)
    boom = rec.wrap("net.tcp", "boom", boom)
    branch = rec.wrap("net.link", "branch", branch)
    root = rec.wrap("sim.engine", "root", root)
    rec.enabled = True
    root()
    rec.enabled = False

    cells = {label: tuple(cell) for (_layer, label), cell
             in rec.cells.items()}
    assert cells["root"] == (1, 4.25)
    assert cells["branch"] == (2, 4.0)      # 2 calls x 2.0 self
    assert cells["leaf"] == (2, 2.0)
    assert cells["boom"] == (1, 0.5)        # recorded despite raising
    assert rec.stack == []
    assert rec.roots == 1
    total_self = sum(cell[1] for cell in rec.cells.values())
    assert total_self == pytest.approx(rec.root_s) == pytest.approx(10.75)

    ledger = rec.to_dict()
    edges = ledger["edges"]
    assert edges["sim.engine>net.link"] == {"calls": 1, "total_s": 6.0}
    assert edges["net.link>net.link"] == {"calls": 1, "total_s": 3.0}
    assert edges["net.link>net.packet"] == {"calls": 2, "total_s": 2.0}
    assert edges["sim.engine>net.tcp"] == {"calls": 1, "total_s": 0.5}
    # sample_every=1: the whole tree under the root was kept.
    assert [span["name"] for span in rec.chrome_trace()] == \
        ["leaf", "branch", "leaf", "branch", "boom"]


def test_disabled_recorder_is_transparent(clock):
    rec = tracer.Recorder()
    wrapped = rec.wrap("app", "f", lambda x: x + 1)
    assert wrapped(1) == 2
    assert rec.cells[("app", "f")] == [0, 0.0]


def test_install_wraps_and_uninstall_restores():
    originals = {(owner, name): owner.__dict__[name]
                 for _layer, owner, name in tracer.entry_points()}
    rec = tracer.Recorder()
    undo = tracer.install(rec)
    try:
        for (owner, name), original in originals.items():
            current = owner.__dict__[name]
            assert current is not original
            assert type(current) is type(original)   # classmethods stay so
    finally:
        tracer.uninstall(undo)
    for (owner, name), original in originals.items():
        assert owner.__dict__[name] is original


# ----------------------------------------------------------------------
# Percentiles and reference-speed time
# ----------------------------------------------------------------------
def test_supported_percentile_leaves_ten_beyond():
    assert run.supported_percentile(100) == 90
    assert run.supported_percentile(1200) == 99
    assert run.supported_percentile(20) == 50
    assert run.supported_percentile(10) == 0
    assert run.supported_percentile(0) == 0
    for count in (11, 37, 100, 250):
        p = run.supported_percentile(count)
        samples = [(float(x), 1.0) for x in range(count)]
        value = run.percentile(samples, p)
        assert sum(1 for x, _w in samples if x > value) >= 10


def test_percentile_is_weighted_nearest_rank():
    unit = [(float(x), 1.0) for x in range(1, 101)]
    assert run.percentile(unit, 90) == 90.0
    assert run.percentile(unit, 50) == 50.0
    assert run.percentile([(5.0, 3.0)], 90) == 5.0
    # 90% of the operations ran in the cheap slice.
    assert run.percentile([(1.0, 90.0), (9.0, 10.0)], 90) == 1.0
    assert run.percentile([(1.0, 89.0), (9.0, 11.0)], 90) == 9.0


def test_reference_speed_cancels_a_slow_host():
    # Same work; the second host runs everything (kernel included) 2x
    # slower for the middle slice.
    quiet = {"w": [1.0, 1.0, 1.0], "ops": [0, 50, 50],
             "c": [[timing.C_REF_S] * 2] * 3}
    slow = 2 * timing.C_REF_S
    noisy = {"w": [1.0, 2.0, 1.0], "ops": [0, 50, 50],
             "c": [[timing.C_REF_S, slow], [slow, slow],
                   [slow, timing.C_REF_S]]}
    assert timing.normalised(quiet) == [1.0, 1.0, 1.0]
    assert timing.slowdown(quiet) == 1.0
    assert timing.normalised(noisy)[1] == pytest.approx(1.0)
    assert timing.slowdown(noisy) > 1.0
    samples = run.pct_samples(quiet)
    assert samples == [(20.0, 50), (20.0, 50)]   # 50 ops/s: 20 ms per op
    assert run.clock({"slices": quiet, "wall_raw_s": 4.5}) == \
        {"wall_raw_s": 4.5, "slowdown": 1.0, "wall_s": 4.5}


def test_calibration_leaves_the_collector_as_it_found_it():
    import gc

    assert gc.isenabled()
    assert timing.calibrate(50) > 0.0
    assert gc.isenabled()
    gc.disable()
    try:
        timing.calibrate(50)
        assert not gc.isenabled()
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def test_judge_verdicts():
    steady = [10.0, 10.1, 9.9]
    assert compare.judge(steady, [10.2, 10.3, 10.1], "lower", 0.08)[0] == "ok"
    assert compare.judge(steady, [11.5, 11.6, 11.4], "lower", 0.08)[0] \
        == "regressed"
    assert compare.judge(steady, [8.0, 8.1, 7.9], "higher", 0.08)[0] \
        == "regressed"
    noisy = [10.0, 12.0, 8.0]
    assert compare.judge(noisy, [10.5, 10.6, 10.4], "lower", 0.08)[0] \
        == "unresolved"
    # Spread wider than the bound, yet every B run beats every A run.
    assert compare.judge(noisy, [7.0, 7.5, 6.0], "lower", 0.08)[0] == "ok"
    status, worse_by = compare.judge(steady, [9.0, 9.0, 9.0], "lower", 0.08)
    assert status == "ok" and worse_by == pytest.approx(-0.1)


def _result_set(wall=10.0, commit="abc", workers=1, digest="d"):
    row = {"wall_s": wall}
    return {
        "host": {"seed": 11, "seconds": 8.0, "host_cpus": 2,
                 "sched_cpus": 2, "python": "3.11.7", "commit": commit},
        "workloads": {"w": {
            "runs": [dict(row), dict(row), dict(row)], "workers": workers,
            "failed": 0, "contained": True, "exact_stable": True,
            "exact": {"sim_digest": digest}}},
    }


METRIC = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.08}]


def test_compare_exit_codes(capsys):
    base = _result_set()
    assert compare.compare(base, _result_set(wall=10.3), METRIC) == 0
    assert compare.compare(base, _result_set(wall=12.0), METRIC) == 1
    assert compare.compare(base, _result_set(workers=2), METRIC) == 2
    # Same commit, different digest: the run is not reproducible.
    assert compare.compare(base, _result_set(digest="e"), METRIC) == 1
    # Across commits a digest change is information, not failure.
    assert compare.compare(
        base, _result_set(digest="e", commit="def"), METRIC) == 0
    other_seed = _result_set()
    other_seed["host"]["seed"] = 12
    assert compare.compare(base, other_seed, METRIC) == 2
    assert "refusing" in capsys.readouterr().out


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what run.py prints
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            assert name.match(entry["name"]), entry
            assert entry["name"] not in seen, entry
            seen.add(entry["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert unit.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert 2 <= len(spec["workloads"]) <= 8
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert spec["paths"] == ["benchmarks/ledger"]


def test_declared_names_match_what_a_run_reports(spec):
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert spec["per_layer"] == layers.declared()

    # A tiny traced farm run, in-process, through the real pipeline.
    import farmrun

    result = farmrun.FarmRun("scan_journaled", 11, 0.05,
                             trace=True).execute(10)
    result["wall_raw_s"] = sum(result["slices"]["w"])
    assert result["checks"]["contained"]
    assert result["checks"]["failed"] == 0
    assert result["checks"]["attempted"] > 0
    assert len(result["slices"]["w"]) == 10 + 3   # warm-up, drain, export

    values = run.per_layer(result, run.clock(result)["wall_s"])
    assert set(values) == {m["name"] for m in spec["per_layer"]}
    assert values["trace.completeness_err"] <= 0.02
    assert values["obs.journal.events"] > 0
    assert values["core.policy.verdict.DROP"] > 0
    assert values["gateway.flowtable.installs_unhit_share"] > 0
    assert values["obs.telemetry.instruments"] > 0

    assert set(run.end_to_end(result, 0.1)) == \
        {m["name"] for m in spec["end_to_end"]}
    # The recorder took its wrappers back off.
    from repro.sim.engine import Simulator
    assert not hasattr(Simulator.run, "__wrapped__")


def test_expected_verdicts_restate_the_scan_program():
    import checks
    from repro.core.dsl import DslPolicy

    policy = DslPolicy(workloads.SCAN_PROGRAM)
    assert len(policy.rules) == 4
    assert checks.expected_verdict(6, 445) == "REFLECT"
    assert checks.expected_verdict(6, 137) == "DROP"
    assert checks.expected_verdict(17, 1434) == "DROP"
    assert checks.expected_verdict(6, 80) == "FORWARD"
    assert checks.expected_verdict(6, 25) == "REFLECT"
    assert checks.expected_verdict(17, 445) == "REFLECT"
