"""Golden digests.

``router_wire.json`` holds one sha256 per scripted router scenario,
recorded from the pre-flow-table slow path (the branch tree every
post-verdict packet took before the table existed) at the commit that
removed it.  ``router_scripts.json`` holds the digests of the seeded
random scripts of :mod:`repro.fuzz.router`, recorded from the commit
before the flow index and the hand-written SHIM-phase relay went
(``recorded_from``).  The tests run each script through the one
remaining path and compare.

``farm_digests.json`` holds the whole-run digests of the seed farm
(:data:`SEED_FARM` through ``tests.helpers.run_farm``), of its journal
with the flight recorder on, of the 8-shard streaming campaign
(:func:`seed_campaign_digest`), and the payload digest of every
fault-matrix scenario under both pending policies
(:func:`fault_shard_digest`): :data:`FARM_PINS` names the code that
produces each.  ``regen.py`` rewrites every pin, deliberately,
when a change alters behaviour on purpose.
"""

from __future__ import annotations

import json
import os
from functools import partial

from repro.experiments.fault_matrix import SCENARIOS, fault_farm_shard
from repro.fuzz.router import digest as wire_digest  # noqa: F401
from repro.gateway.failover import PENDING_POLICIES
from repro.parallel import Campaign, run_campaign
from tests.helpers import run_farm, streaming_farm

HERE = os.path.dirname(__file__)
GOLDEN_PATH = os.path.join(HERE, "router_wire.json")
SCRIPTS_PATH = os.path.join(HERE, "router_scripts.json")
FARM_PATH = os.path.join(HERE, "farm_digests.json")

#: ``run_farm`` arguments of the pinned seed farm: seed 11, three
#: streaming inmates of 40 rounds, 120 virtual seconds.
SEED_FARM = dict(seed=11, inmates=3, rounds=40, duration=120.0)


def expected(name: str) -> str:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)[name]


def script_digests() -> list:
    """Digest of router script ``seed`` at index ``seed``."""
    with open(SCRIPTS_PATH) as handle:
        return json.load(handle)["digests"]


def farm_pin(name: str) -> str:
    with open(FARM_PATH) as handle:
        return json.load(handle)[name]


def journaled_seed_farm():
    """The seed farm, run with the flight recorder attached."""
    farm, _ = streaming_farm(SEED_FARM["seed"], SEED_FARM["inmates"],
                             SEED_FARM["rounds"], journal=True)
    farm.run(until=SEED_FARM["duration"])
    return farm


def seed_campaign_digest() -> str:
    """Eight seed-11 streaming-farm shards of two subfarms of four
    inmates each, run serially."""
    campaign = Campaign.seed_sweep(
        "parallel-scaling", "repro.parallel.tasks:streaming_farm_shard",
        params={"subfarms": 2, "inmates": 4, "rounds": 100,
                "duration": 200.0},
        count=8, base_seed=11)
    return run_campaign(campaign, workers=1).digest


def fault_shard_digest(scenario: str, pending_policy: str) -> str:
    """One seed-11 fault-matrix cell of the default shape — two
    subfarms of three inmates, one standby containment server each, a
    5 s verdict deadline — under ``pending_policy``.  The digest folds
    every subfarm's ``resilience.summary()``."""
    return fault_farm_shard(11, scenario=scenario,
                            pending_policy=pending_policy)["digest"]


#: What ``farm_digests.json`` pins, by key.
FARM_PINS = {
    "farm": lambda: run_farm(**SEED_FARM)["digest"],
    "farm_journal": lambda: journaled_seed_farm().journal.digest(),
    "campaign": seed_campaign_digest,
    **{f"fault/{scenario}/{policy}":
       partial(fault_shard_digest, scenario, policy)
       for scenario in SCENARIOS for policy in PENDING_POLICIES},
}
