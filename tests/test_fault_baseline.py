"""Empty fault plan ⇒ byte-identical digests vs the tracked baselines.

The fault plane's determinism contract (docs/RESILIENCE.md): an empty
`FaultPlan` installs nothing — no injector, no RNG streams, no
scheduled events, no telemetry families — so a faultless farm's run
digest is byte-identical to the pre-fault-plane build.  These tests
pin that against the digests tracked in `BENCH_hotpath.json` and
`BENCH_parallel.json`.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "benchmarks"))

from bench_hotpath import run_farm  # noqa: E402
from bench_parallel_scaling import build_sweep  # noqa: E402

from repro.core.policy import AllowAll  # noqa: E402
from repro.farm import Farm, FarmConfig  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.parallel.pool import run_campaign  # noqa: E402
from repro.parallel.tasks import TARGET_IP, _echo_server, \
    _streaming_image  # noqa: E402

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


def digest_farm(config):
    """The bench_hotpath digest recipe over an explicit FarmConfig."""
    farm = Farm(config)
    _echo_server(farm.add_external_host("echo", TARGET_IP))
    sub = farm.create_subfarm("bench")
    sub.set_default_policy(AllowAll())
    for _ in range(3):
        sub.create_inmate(image_factory=_streaming_image(20))
    farm.run(until=90.0)
    digest = hashlib.sha256()
    digest.update(json.dumps(dict(sub.router.counters),
                             sort_keys=True).encode())
    for entry in sub.router.flow_log:
        digest.update(
            f"{entry.timestamp:.9f}|{entry.vlan}|{entry.verdict}"
            f"|{entry.orig}|{entry.policy}".encode())
    for rec in farm.gateway.upstream_trace.records:
        digest.update(rec.frame.to_bytes())
    digest.update(json.dumps(farm.telemetry_snapshot(include_traces=False),
                             sort_keys=True).encode())
    return digest.hexdigest()


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
