"""Worker-pool failure modes: shard timeout, worker crash mid-task,
and oversubscribed pools.  Every failure must surface as a structured
error in the merged result — never a hang, never a lost campaign.

These tests start real spawn-based worker processes; they are kept
small so the whole module stays within a few seconds.
"""

from __future__ import annotations

import time

import pytest

from repro.parallel import Campaign, ShardSpec, run_campaign

NOOP = "repro.parallel.tasks:noop_shard"
CRASH = "repro.parallel.tasks:crashing_shard"
SLEEP = "repro.parallel.tasks:sleepy_shard"

pytestmark = pytest.mark.integration


def test_shard_timeout_kills_only_that_shard():
    campaign = Campaign("timeouts", [
        ShardSpec(0, NOOP, {"seed": 1}),
        ShardSpec(1, SLEEP, {"seed": 2, "wall_seconds": 60.0},
                  timeout=1.0),
        ShardSpec(2, NOOP, {"seed": 3}),
    ])
    started = time.monotonic()
    result = run_campaign(campaign, workers=2)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, "timeout enforcement must not hang"
    assert len(result.shard_results) == 3
    assert [r.ok for r in result.shard_results] == [True, False, True]
    failure = result.failures[0]
    assert failure["shard"] == 1
    assert failure["kind"] == "timeout"
    assert "timeout" in failure["message"]


def test_worker_crash_fails_only_its_shard():
    campaign = Campaign("crashes", [
        ShardSpec(0, NOOP, {"seed": 1}),
        ShardSpec(1, CRASH, {"seed": 2}),
        ShardSpec(2, NOOP, {"seed": 3}),
        ShardSpec(3, NOOP, {"seed": 4}),
    ])
    result = run_campaign(campaign, workers=2)
    assert len(result.shard_results) == 4
    assert not result.ok
    failure = result.failures[0]
    assert failure["shard"] == 1
    assert failure["kind"] == "crash"
    assert "died" in failure["message"]
    survivors = [r for r in result.shard_results if r.index != 1]
    assert all(r.ok for r in survivors)


def test_crash_mid_chunk_requeues_the_rest_of_the_chunk():
    # The crasher in the middle of three shards: the in-flight shard
    # fails, the rest still complete (on a respawned worker if the
    # dead one was to run them).
    campaign = Campaign("chunked", [
        ShardSpec(0, NOOP, {"seed": 1}),
        ShardSpec(1, CRASH, {"seed": 2}),
        ShardSpec(2, NOOP, {"seed": 3}),
    ])
    result = run_campaign(campaign, workers=1 + 1)
    assert len(result.shard_results) == 3
    assert [r.ok for r in result.shard_results] == [True, False, True]
    assert result.failures[0]["kind"] == "crash"


def test_oversubscribed_pool_completes_everything():
    # Far more shards than workers: chunking and warm reuse must chew
    # through the backlog with no loss and no duplicate results.
    campaign = Campaign.seed_sweep("backlog", NOOP, count=24,
                                   base_seed=5)
    result = run_campaign(campaign, workers=2)
    assert result.ok
    assert [r.index for r in result.shard_results] == list(range(24))
    serial = run_campaign(campaign, workers=1)
    assert serial.digest == result.digest


def test_every_shard_crashing_still_terminates():
    campaign = Campaign("all-crash", [
        ShardSpec(index, CRASH, {"seed": index}) for index in range(3)
    ])
    started = time.monotonic()
    result = run_campaign(campaign, workers=2)
    assert time.monotonic() - started < 60.0
    assert len(result.shard_results) == 3
    assert not result.ok
    assert all(not r.ok for r in result.shard_results)
    kinds = {f["kind"] for f in result.failures}
    assert kinds <= {"crash", "pool"}
    assert "crash" in kinds


def test_default_timeout_applies_to_unmarked_shards():
    campaign = Campaign("default-timeout", [
        ShardSpec(0, SLEEP, {"seed": 1, "wall_seconds": 60.0}),
        ShardSpec(1, NOOP, {"seed": 2}),
    ])
    result = run_campaign(campaign, workers=2,
                          default_timeout=1.0)
    assert result.failures[0]["shard"] == 0
    assert result.failures[0]["kind"] == "timeout"
    assert result.shard_results[1].ok
