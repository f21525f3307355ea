"""The adaptive shard scheduler: work-stealing digest parity against
serial runs, scheduling-honesty metadata, and the oversubscription
warning."""

from __future__ import annotations

import pytest

from repro.parallel import Campaign, ShardSpec, run_campaign

NOOP = "repro.parallel.tasks:noop_shard"
FARM = "repro.parallel.tasks:streaming_farm_shard"

TINY_FARM = {"subfarms": 1, "inmates": 1, "rounds": 5, "duration": 30.0}

pytestmark = pytest.mark.integration


def farm_campaign(count: int = 6, base_seed: int = 9) -> Campaign:
    return Campaign.seed_sweep("sched-parity", FARM,
                               params=dict(TINY_FARM),
                               count=count, base_seed=base_seed)


class TestStealParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_digest_matches_serial(self, workers):
        campaign = farm_campaign()
        serial = run_campaign(campaign, workers=1)
        stolen = run_campaign(campaign, workers=workers,
                              scheduler="steal")
        assert stolen.ok
        assert stolen.digest == serial.digest
        # The merged views (telemetry labels, summed metrics) must be
        # identical too — host names never leak into identities.
        assert stolen.merged["metrics"] == serial.merged["metrics"]

    def test_unknown_scheduler_rejected(self):
        # One scheduler: the name is accepted (the frozen ledger
        # passes it), anything else — the deleted "static" included —
        # is refused before any worker starts.
        for name in ("magic", "static"):
            with pytest.raises(ValueError, match="scheduler"):
                run_campaign(farm_campaign(count=2), workers=2,
                             scheduler=name)


class TestSchedulingHonesty:
    def test_serial_run_records_host(self):
        result = run_campaign(farm_campaign(count=1), workers=1)
        (record,) = result.merged["hosts"].values()
        assert record["workers"] == 1
        assert record["shards"] == 1
        assert "host_cpus" in record and "sched_cpus" in record

    def test_parallel_run_records_host_cpus_and_stats(self):
        result = run_campaign(farm_campaign(count=4), workers=2)
        (record,) = result.merged["hosts"].values()
        assert record["workers"] == 2
        assert record["shards"] == 4
        stats = result.merged["scheduler"]
        assert stats["mode"] == "steal"
        assert stats["transport"] == "local"
        assert stats["dispatches"] >= 4
        assert len(stats["per_worker"]) == 2
        assert sum(w["shards"] for w in stats["per_worker"]) == 4

    def test_oversubscription_warns_one_line(self):
        # This container schedules 1 cpu, so 2 workers oversubscribe.
        import os

        try:
            sched = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            sched = os.cpu_count()
        if sched is None or sched >= 2:
            pytest.skip("host has enough cpus; nothing to warn about")
        with pytest.warns(RuntimeWarning, match="oversubscribed"):
            run_campaign(farm_campaign(count=2), workers=2)

    def test_hosts_and_stats_stay_out_of_the_digest(self):
        campaign = farm_campaign(count=2)
        serial = run_campaign(campaign, workers=1)
        parallel = run_campaign(campaign, workers=2)
        assert serial.digest == parallel.digest
        assert serial.merged.get("scheduler") is None
        assert parallel.merged["scheduler"]["workers"] == 2


class TestFaultedShardsUnderSteal:
    def test_injected_worker_error_not_respawned_forever(self):
        campaign = farm_campaign(count=3)
        plan = {"specs": [{"kind": "worker_error", "shard": 1}]}
        result = run_campaign(campaign, workers=2, fault_plan=plan)
        assert not result.ok
        (failure,) = result.failures
        assert failure["shard"] == 1
        assert failure["kind"] == "error"
        survivors = [r for r in result.shard_results if r.index != 1]
        assert all(r.ok for r in survivors)
