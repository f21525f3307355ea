"""repro.parallel: campaign descriptions, the serial fallback, the
deterministic merge, and serial-vs-parallel digest parity.

Failure modes (timeouts, crashes, oversubscription) live in
``test_parallel_failures.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.farm import FarmConfig
from repro.gateway.nat import InboundMode
from repro.obs.merge import label_identity, merge
from repro.parallel import (
    Campaign,
    ShardSpec,
    derive_seed,
    resolve_task,
    run_campaign,
    task_name,
)
from repro.parallel.tasks import noop_shard, streaming_farm_shard

FARM_TASK = "repro.parallel.tasks:streaming_farm_shard"
NOOP_TASK = "repro.parallel.tasks:noop_shard"

TINY_FARM = {"subfarms": 2, "inmates": 1, "rounds": 10, "duration": 30.0}


def certificate_shard(seed: int, certificate) -> dict:
    """A shard whose payload carries ``certificate`` as given."""
    return {"seed": seed, "certificate": certificate}


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, 3) == derive_seed(5, 3)

    def test_disjoint_across_shards(self):
        seeds = {derive_seed(0, shard) for shard in range(100)}
        assert len(seeds) == 100

    def test_disjoint_across_bases(self):
        # seed 1/shard 0 must share nothing with seed 0/shard 1 —
        # naive base+shard addition would collide.
        assert derive_seed(1, 0) != derive_seed(0, 1)


class TestShardSpec:
    def test_round_trip(self):
        spec = ShardSpec(3, NOOP_TASK, {"seed": 9}, timeout=12.5,
                        label="x")
        clone = ShardSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert clone.to_dict() == spec.to_dict()

    def test_rejects_non_json_params(self):
        with pytest.raises(ValueError):
            ShardSpec(0, NOOP_TASK, {"seed": object()})

    @pytest.mark.parametrize("document", [
        [], {"task": NOOP_TASK}, {"index": True, "task": NOOP_TASK},
        {"index": 0, "task": 7}, {"index": 0, "task": None},
        {"index": 0, "task": NOOP_TASK, "timeout": "x"},
        {"index": 0, "task": NOOP_TASK, "params": [1]},
        {"index": 0, "task": NOOP_TASK, "label": 5},
        {"index": 0, "task": NOOP_TASK, "seed": 1},
    ])
    def test_wrong_shapes_come_back_as_value_errors(self, document):
        # Before the shard-spec table these were KeyError,
        # TypeError, or accepted (index true as shard 1, task 7, an
        # unknown key); a campaign carrying one fails the same way.
        with pytest.raises(ValueError):
            ShardSpec.from_dict(document)
        with pytest.raises(ValueError):
            Campaign.from_dict({"name": "c", "shards": [document]})

    def test_resolve_task_round_trip(self):
        assert resolve_task(task_name(noop_shard)) is noop_shard
        assert resolve_task(FARM_TASK) is streaming_farm_shard

    def test_resolve_task_rejects_bad_names(self):
        with pytest.raises(ValueError):
            resolve_task("not-a-task")
        with pytest.raises(ValueError):
            resolve_task("repro.parallel.tasks:nope")


class TestCampaign:
    def test_seed_sweep_derives_disjoint_seeds(self):
        campaign = Campaign.seed_sweep("s", NOOP_TASK, count=4,
                                       base_seed=7)
        seeds = [spec.seed for spec in campaign]
        assert len(set(seeds)) == 4
        assert seeds == [derive_seed(7, shard) for shard in range(4)]

    def test_seed_sweep_explicit_seeds(self):
        campaign = Campaign.seed_sweep("s", NOOP_TASK,
                                       seeds=[3, 1, 4])
        assert [spec.seed for spec in campaign] == [3, 1, 4]

    def test_config_sweep_pins_and_derives(self):
        campaign = Campaign.config_sweep(
            "c", NOOP_TASK, [{"seed": 5}, {"value": 2}], base_seed=1)
        assert campaign.shards[0].seed == 5
        assert campaign.shards[1].seed == derive_seed(1, 1)

    def test_spec_digest_stable_and_sensitive(self):
        a = Campaign.seed_sweep("s", NOOP_TASK, count=3, base_seed=1)
        b = Campaign.seed_sweep("s", NOOP_TASK, count=3, base_seed=1)
        c = Campaign.seed_sweep("s", NOOP_TASK, count=3, base_seed=2)
        assert a.spec_digest() == b.spec_digest()
        assert a.spec_digest() != c.spec_digest()

    def test_round_trip(self):
        campaign = Campaign.seed_sweep("s", NOOP_TASK, count=3,
                                       base_seed=1)
        clone = Campaign.from_dict(
            json.loads(json.dumps(campaign.to_dict())))
        assert clone.spec_digest() == campaign.spec_digest()

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            Campaign("dup", [ShardSpec(0, NOOP_TASK, {"seed": 1}),
                             ShardSpec(0, NOOP_TASK, {"seed": 2})])

    @pytest.mark.parametrize("build", [
        lambda: Campaign("none", []),
        lambda: Campaign.seed_sweep("s", NOOP_TASK, count=0),
        lambda: Campaign.seed_sweep("s", NOOP_TASK, count=-2),
        lambda: Campaign.seed_sweep("s", NOOP_TASK, seeds=[]),
        lambda: Campaign.config_sweep("c", NOOP_TASK, []),
        lambda: Campaign.from_dict({"name": "d", "shards": []}),
    ])
    def test_no_shards_rejected(self, build):
        # A sweep of nothing ran zero shards and reported success.
        with pytest.raises(ValueError, match="has no shards"):
            build()

    @pytest.mark.parametrize("document", [
        {}, [], {"name": "c"}, {"name": 1, "shards": []},
        {"name": "c", "shards": {}}, {"name": "c", "shards": [1]},
        {"name": "c", "shards": [], "base_seed": "x"},
        {"name": "c", "shards": [], "metadata": []},
        {"name": "c", "shards": [], "kind": "seed_sweep"},
    ])
    def test_wrong_shapes_come_back_as_value_errors(self, document):
        with pytest.raises(ValueError):
            Campaign.from_dict(document)


class TestFarmConfigRoundTrip:
    def test_round_trip_through_json(self):
        config = FarmConfig(seed=9, inbound_mode=InboundMode.DROP,
                            telemetry=True, journal=True,
                            global_networks=["192.0.2.0/24"],
                            safety_window=15.0)
        data = json.loads(json.dumps(config.to_dict()))
        clone = FarmConfig.from_dict(data)
        assert clone.to_dict() == config.to_dict()
        assert clone.inbound_mode is InboundMode.DROP
        assert [str(net) for net in clone.global_networks] \
            == ["192.0.2.0/24"]

    def test_defaults_round_trip(self):
        config = FarmConfig()
        assert FarmConfig.from_dict(config.to_dict()).to_dict() \
            == config.to_dict()

    def test_fault_and_resilience_options_round_trip(self):
        config = FarmConfig(
            seed=4,
            fault_plan={"specs": [
                {"kind": "cs_crash", "at": 30.0, "restore_after": 40.0},
                {"kind": "shim_drop", "probability": 0.2,
                 "start": 10.0, "end": 80.0, "subfarm": "alpha"},
            ]},
            verdict_deadline=5.0,
            pending_policy="forward",
        )
        clone = FarmConfig.from_dict(
            json.loads(json.dumps(config.to_dict())))
        assert clone.to_dict() == config.to_dict()
        assert clone.verdict_deadline == 5.0
        assert clone.pending_policy == "forward"
        assert not clone.fault_plan.is_empty
        assert clone.fault_plan.digest() == config.fault_plan.digest()

    def test_empty_fault_plan_round_trips_empty(self):
        clone = FarmConfig.from_dict(FarmConfig().to_dict())
        assert clone.fault_plan.is_empty
        assert clone.verdict_deadline is None

    def test_unknown_keys_fail_loudly(self):
        with pytest.raises(ValueError):
            FarmConfig.from_dict({"seed": 1, "not_a_knob": True})


class TestSerialFallback:
    def test_serial_runs_in_process(self):
        campaign = Campaign.seed_sweep("s", NOOP_TASK, count=5,
                                       base_seed=2)
        result = run_campaign(campaign, workers=1)
        assert result.ok
        assert result.workers == 1
        assert [r.index for r in result.shard_results] == list(range(5))
        assert all(r.worker == 0 for r in result.shard_results)

    def test_in_task_exception_is_structured(self):
        campaign = Campaign("f", [
            ShardSpec(0, "repro.parallel.tasks:failing_shard",
                      {"seed": 1, "message": "kaboom"}),
            ShardSpec(1, NOOP_TASK, {"seed": 2}),
        ])
        result = run_campaign(campaign, workers=1)
        assert not result.ok
        assert result.shard_results[1].ok
        failure = result.failures[0]
        assert failure["kind"] == "error"
        assert "kaboom" in failure["message"]

    def test_non_json_payload_is_structured(self):
        campaign = Campaign("p", [
            ShardSpec(0, "repro.parallel.campaign:resolve_task",
                      {"task": "repro.parallel.tasks:noop_shard"}),
        ])
        result = run_campaign(campaign, workers=1)
        assert result.failures[0]["kind"] == "payload"

    def test_payload_over_the_frame_bound_is_structured(self, monkeypatch):
        # A result no frame can carry fails the same way on every path:
        # as kind "payload", never as a crash of the slot that made it.
        from repro.parallel import transport

        monkeypatch.setattr(transport, "MAX_FRAME_BYTES", 1024)
        campaign = Campaign.config_sweep(
            "big", NOOP_TASK, [{"seed": 1, "value": "x" * 2048},
                               {"seed": 2, "value": "x" * 64}])
        result = run_campaign(campaign, workers=1)
        assert [r.ok for r in result.shard_results] == [False, True]
        (failure,) = result.failures
        assert failure["kind"] == "payload"
        assert "1024-byte frame" in failure["message"]

    def test_malformed_certificate_fails_its_shard_only(self):
        """A shard whose certificate has the wrong shape fails as kind
        "payload"; the campaign completes and merges the others'."""
        from repro.core.policy import AllowAll
        from repro.farm import Farm
        from repro.verify import certify_farm

        farm = Farm(FarmConfig(seed=7))
        farm.create_subfarm("c").set_default_policy(AllowAll())
        good = certify_farm(farm, label="good")
        task = task_name(certificate_shard)
        campaign = Campaign("certs", [
            ShardSpec(0, task, {"seed": 1, "certificate": good}),
            ShardSpec(1, task, {"seed": 2,
                                "certificate": {"states_explored": "x"}}),
            ShardSpec(2, task, {"seed": 3, "certificate": good}),
        ])
        result = run_campaign(campaign, workers=1)
        assert [r.ok for r in result.shard_results] == [True, False, True]
        (failure,) = result.failures
        assert failure["kind"] == "payload"
        assert "certificate field" in failure["message"]
        merged = result.merged["certificate"]
        assert [shard["label"] for shard in merged["shards"]] == \
            ["good", "good"]
        assert merged["result"] == "CONTAINED"

    def test_merged_metrics_sum_across_shards(self):
        campaign = Campaign.config_sweep(
            "m", NOOP_TASK,
            [{"seed": 1, "value": 10}, {"seed": 2, "value": 32}])
        result = run_campaign(campaign, workers=1)
        assert result.merged["shards_ok"] == 2
        payloads = result.payloads()
        assert [p["value"] for p in payloads] == [10, 32]


class TestSnapshotMerge:
    def test_label_identity_sorted(self):
        assert label_identity("flows{sub=a}", shard="3") \
            == "flows{shard=3,sub=a}"
        assert label_identity("flows", shard="0") == "flows{shard=0}"

    def test_label_conflict_raises(self):
        with pytest.raises(ValueError):
            label_identity("flows{shard=1}", shard="2")

    def test_merge_disjoint_and_ordered(self):
        snap_a = {"schema": "gq.telemetry/2", "enabled": True,
                  "time": 5.0, "counters": {"c{x=1}": 2}, "gauges": {},
                  "histograms": {}}
        snap_b = {"schema": "gq.telemetry/2", "enabled": True,
                  "time": 9.0, "counters": {"c{x=1}": 5}, "gauges": {},
                  "histograms": {}}
        merged = merge([snap_a, snap_b],
                       labels=[{"shard": "0"}, {"shard": "1"}])
        assert merged["counters"] == {"c{shard=0,x=1}": 2,
                                      "c{shard=1,x=1}": 5}
        assert merged["time"] == 9.0
        assert sorted(merged) == sorted(snap_a)
        # Order-independence: the other arrival order merges identically.
        flipped = merge([snap_b, snap_a],
                        labels=[{"shard": "1"}, {"shard": "0"}])
        assert json.dumps(merged, sort_keys=True) \
            == json.dumps(flipped, sort_keys=True)

    def test_collision_without_labels_raises(self):
        snap = {"schema": "gq.telemetry/2", "enabled": True, "time": 1.0,
                "counters": {"c": 1}, "gauges": {}, "histograms": {}}
        with pytest.raises(ValueError):
            merge([snap, dict(snap)])


@pytest.mark.integration
class TestDigestParity:
    """The acceptance contract: a parallel campaign merges to the
    byte-identical digest (and merged telemetry snapshot) of a serial
    run of the same spec — on a 2-subfarm seed sweep."""

    @pytest.fixture(scope="class")
    def campaign(self):
        return Campaign.seed_sweep("parity", FARM_TASK,
                                   params=dict(TINY_FARM),
                                   count=4, base_seed=13)

    @pytest.fixture(scope="class")
    def serial(self, campaign):
        return run_campaign(campaign, workers=1)

    @pytest.fixture(scope="class")
    def parallel(self, campaign):
        return run_campaign(campaign, workers=2)

    def test_both_complete(self, serial, parallel):
        assert serial.ok and parallel.ok
        assert len(serial.shard_results) == 4
        assert len(parallel.shard_results) == 4

    def test_campaign_digest_byte_identical(self, serial, parallel):
        assert serial.digest == parallel.digest
        assert serial.spec_digest == parallel.spec_digest

    def test_per_shard_payloads_identical(self, serial, parallel):
        for ours, theirs in zip(serial.shard_results,
                                parallel.shard_results):
            assert ours.payload["digest"] == theirs.payload["digest"]
            assert ours.payload["metrics"] == theirs.payload["metrics"]

    def test_merged_telemetry_snapshot_identical(self, serial, parallel):
        assert json.dumps(serial.merged["telemetry"], sort_keys=True) \
            == json.dumps(parallel.merged["telemetry"], sort_keys=True)

    def test_merged_snapshot_is_shard_labeled(self, serial):
        merged = serial.merged["telemetry"]
        assert merged["enabled"]
        shard_tags = {identity for identity in merged["counters"]
                      if "shard=" in identity}
        assert shard_tags, "expected shard labels on merged identities"

    def test_serial_replay_is_stable(self, campaign, serial):
        replay = run_campaign(campaign, workers=1)
        assert replay.digest == serial.digest
