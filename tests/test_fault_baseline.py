"""Empty fault plan ⇒ byte-identical digests vs the tracked baselines.

The fault plane's determinism contract (docs/RESILIENCE.md): an empty
`FaultPlan` installs nothing — no injector, no RNG streams, no
scheduled events, no telemetry families — so a faultless farm's run
digest is byte-identical to the pre-fault-plane build.  These tests
pin that against the seed-farm and campaign digests tracked in
`tests/golden/farm_digests.json`.
"""

from __future__ import annotations

import pytest

from repro.core.policy import AllowAll
from repro.farm import Farm, FarmConfig
from repro.faults import FaultPlan
from repro.parallel.tasks import TARGET_IP, _echo_server, \
    _streaming_image, farm_digest
from tests.golden import FARM_PINS, farm_pin, wire_digest
from tests.helpers import run_farm

pytestmark = pytest.mark.integration


class TestTrackedBaselines:
    def test_farm_digest_matches_the_pin(self):
        """run_farm on the seed farm must still produce the pinned
        digest."""
        assert FARM_PINS["farm"]() == farm_pin("farm")

    def test_campaign_digest_matches_the_pin(self):
        """The tracked 8-shard campaign digest must be reproducible
        serially, fault plane present but empty."""
        assert FARM_PINS["campaign"]() == farm_pin("campaign")


#: The pins that folded the whole ``gq.telemetry/1`` snapshot JSON, as
#: recorded at the last commit that emitted it, with the sections that
#: commit's snapshot carried beyond today's six keys (the span counts
#: are what its per-flow span recorder had seen by the end of each
#: run).
V1_PINS = [
    # tests/golden/farm_digests.json "farm", as it read under /1.
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
                         ids=["seed-farm", "golden-farm-seed-23"])
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
