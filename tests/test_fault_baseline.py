"""Empty fault plan ⇒ byte-identical digests vs the tracked baselines.

The fault plane's determinism contract (docs/RESILIENCE.md): an empty
`FaultPlan` installs nothing — no injector, no RNG streams, no
scheduled events, no telemetry families — so a faultless farm's run
digest is byte-identical to the pre-fault-plane build.  These tests
pin that against the digests tracked in `BENCH_hotpath.json` and
`BENCH_parallel.json`.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "benchmarks"))

from bench_hotpath import run_farm  # noqa: E402
from bench_parallel_scaling import build_sweep  # noqa: E402

from tests.golden import wire_digest  # noqa: E402

from repro.core.policy import AllowAll  # noqa: E402
from repro.farm import Farm, FarmConfig  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.parallel.pool import run_campaign  # noqa: E402
from repro.parallel.tasks import TARGET_IP, _echo_server, \
    _streaming_image, farm_digest  # noqa: E402

pytestmark = pytest.mark.integration


def tracked(name):
    with open(os.path.join(REPO, name)) as handle:
        return json.load(handle)


class TestTrackedBaselines:
    def test_farm_digest_matches_bench_hotpath(self):
        """run_farm with the tracked determinism parameters must still
        produce the digest recorded in BENCH_hotpath.json."""
        baseline = tracked("BENCH_hotpath.json")["determinism"]["digest"]
        result = run_farm(seed=11, inmates=3, rounds=40, duration=120.0)
        assert result["digest"] == baseline

    def test_campaign_digest_matches_bench_parallel(self):
        """The tracked 8-shard campaign digest must be reproducible
        serially, fault plane present but empty."""
        baseline = tracked("BENCH_parallel.json")["campaign"]["digest"]
        campaign = build_sweep(8, 11, 0.0, subfarms=2, inmates=4,
                               rounds=100, duration=200.0)
        result = run_campaign(campaign, workers=1)
        assert result.ok
        assert result.digest == baseline


#: The pins that folded the whole ``gq.telemetry/1`` snapshot JSON, as
#: recorded at the last commit that emitted it, with the sections that
#: commit's snapshot carried beyond today's six keys (the span counts
#: are what its per-flow span recorder had seen by the end of each
#: run).
V1_PINS = [
    # BENCH_hotpath.json /determinism/digest, BENCH_obs.json
    # /digest_identity/*.
    ((11, 3, 40, 120.0), {"spans": 15, "traces": 3, "evicted": 0},
     lambda result: result["digest"],
     "8621645c7cf7d77b3152a43ec6d82e83873871c4ce28b6f4a5ad71575637a91f"),
    # tests/golden/router_wire.json "farm-seed-23".
    ((23, 2, 12, 60.0), {"spans": 10, "traces": 2, "evicted": 0},
     lambda result: wire_digest(
         {key: result[key]
          for key in ("digest", "events", "packets_relayed")}),
     "85835cfef3e0674fe5e2f59d10eebb0df833d705474f615cd6e0c4ce7a48c6b7"),
]


@pytest.mark.parametrize("params, tracer, fold, old_pin", V1_PINS,
                         ids=["bench-hotpath", "golden-farm-seed-23"])
def test_v1_digest_reconstructs(monkeypatch, params, tracer, fold,
                                old_pin):
    """Schema /1 -> /2 moved the snapshot's own keys and not one other
    byte of the snapshot or the wire: today's snapshot plus the
    constants the old schema emitted hashes to the old pin."""
    real = Farm.telemetry_snapshot

    def v1_snapshot(farm, include_traces=True):
        snap = real(farm)
        assert sorted(snap) == ["counters", "enabled", "gauges",
                                "histograms", "schema", "time"]
        assert snap["schema"] == "gq.telemetry/2"
        snap.update({
            "schema": "gq.telemetry/1",
            "traces": {},
            "hub": {"published": 0, "retained": 0, "evicted": 0},
            "tracer": tracer,
        })
        return snap

    monkeypatch.setattr(Farm, "telemetry_snapshot", v1_snapshot)
    assert fold(run_farm(*params)) == old_pin


def digest_farm(config):
    """The one farm digest recipe over an explicit FarmConfig."""
    farm = Farm(config)
    _echo_server(farm.add_external_host("echo", TARGET_IP))
    sub = farm.create_subfarm("bench")
    sub.set_default_policy(AllowAll())
    for _ in range(3):
        sub.create_inmate(image_factory=_streaming_image(20))
    farm.run(until=90.0)
    return farm_digest(farm)[0]


class TestEmptyPlanIsInvisible:
    def test_explicit_empty_plan_matches_default(self):
        default = digest_farm(FarmConfig(seed=5, telemetry=True))
        empty_dict = digest_farm(FarmConfig(seed=5, telemetry=True,
                                            fault_plan={"specs": []}))
        empty_obj = digest_farm(FarmConfig(seed=5, telemetry=True,
                                           fault_plan=FaultPlan()))
        assert default == empty_dict == empty_obj

    def test_empty_plan_installs_no_injector(self):
        farm = Farm(FarmConfig(seed=5, fault_plan={"specs": []}))
        assert farm.config.fault_plan.is_empty
        assert farm.fault_injector is None
