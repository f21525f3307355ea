"""repro.parallel.topology: declarative farm-of-farms layouts lowered
by compiler passes into a concrete, digest-stable placement."""

from __future__ import annotations

import json

import pytest

from repro.parallel.topology import (
    FarmTopology,
    HostSpec,
    Placement,
    TopologyError,
)

FARM_TASK = "repro.parallel.tasks:streaming_farm_shard"


def two_host_topology(**overrides) -> FarmTopology:
    kwargs = dict(
        name="itest",
        subfarms=4,
        hosts=[HostSpec("alpha", "local", cpus=8),
               HostSpec("beta", "10.0.0.2:9000", cpus=16,
                        max_workers=4)],
        subfarms_per_shard=2,
    )
    kwargs.update(overrides)
    return FarmTopology(**kwargs)


class TestCompile:
    def test_all_passes_run_in_order(self):
        placement = two_host_topology().compile()
        assert placement.passes_used == [
            "normalize", "validate_hosts", "pack_shards",
            "validate_placement",
        ]

    def test_shards_round_robin_over_hosts(self):
        placement = two_host_topology().compile()
        assert [sh["host"] for sh in placement.shards] == \
            ["alpha", "beta"]
        assert [sh["subfarms"] for sh in placement.shards] == \
            [["sf-0", "sf-1"], ["sf-2", "sf-3"]]

    def test_explicit_host_pin_wins(self):
        placement = two_host_topology(
            subfarm_specs=[{"host": "beta"}, {"host": "beta"}]).compile()
        assert placement.shards[0]["host"] == "beta"

    def test_endpoints_skip_local_hosts(self):
        placement = two_host_topology().compile()
        assert placement.endpoints() == ["10.0.0.2:9000"]


class TestCompileErrors:
    def test_unknown_host_fails_at_compile_time(self):
        topo = FarmTopology("bad", subfarms=1,
                            subfarm_specs=[{"host": "ghost"}])
        with pytest.raises(TopologyError) as excinfo:
            topo.compile()
        assert any(e["error"] == "unknown_host"
                   for e in excinfo.value.errors)

    def test_duplicate_subfarm_names_rejected(self):
        topo = FarmTopology("bad", subfarms=2,
                            subfarm_specs=[{"name": "x"},
                                           {"name": "x"}])
        with pytest.raises(TopologyError) as excinfo:
            topo.compile()
        assert any(e["error"] == "duplicate_subfarm"
                   for e in excinfo.value.errors)

    def test_split_shard_pins_rejected(self):
        topo = two_host_topology(
            subfarm_specs=[{"host": "alpha"}, {"host": "beta"}])
        with pytest.raises(TopologyError) as excinfo:
            topo.compile()
        assert any(e["error"] == "split_shard"
                   for e in excinfo.value.errors)

    def test_bad_host_address_rejected(self):
        topo = FarmTopology("bad", subfarms=1,
                            hosts=[HostSpec("h", "no-port-here")])
        with pytest.raises(TopologyError) as excinfo:
            topo.compile()
        assert any(e["error"] == "bad_address"
                   for e in excinfo.value.errors)


class TestSerialization:
    def test_topology_json_round_trip_stable_digest(self):
        topo = two_host_topology()
        clone = FarmTopology.from_dict(
            json.loads(json.dumps(topo.to_dict())))
        assert clone.to_dict() == topo.to_dict()
        assert clone.spec_digest() == topo.spec_digest()

    def test_placement_json_round_trip_stable_digest(self):
        placement = two_host_topology().compile()
        clone = Placement.from_dict(
            json.loads(json.dumps(placement.to_dict())))
        assert clone.to_dict() == placement.to_dict()
        assert clone.digest() == placement.digest()

    def test_unknown_topology_key_rejected(self):
        with pytest.raises(TopologyError) as excinfo:
            FarmTopology.from_dict({"name": "x", "subfarms": 1,
                                    "vlans": [1]})
        assert any(e["error"] == "unknown_key"
                   for e in excinfo.value.errors)

    def test_unknown_subfarm_key_rejected(self):
        with pytest.raises(TopologyError):
            FarmTopology.from_dict({
                "name": "x", "subfarms": 1,
                "subfarm_specs": [{"vlan": 100}],
            })

    def test_file_naming_a_removed_key_rejected(self):
        """A topology file written for the VLAN / containment-server /
        service passes (gone until a farm is built from a placement)
        fails structurally, naming every key nothing reads any more."""
        old_file = {
            "name": "old", "subfarms": 2, "vlan_base": 200,
            "vlans_per_subfarm": 2, "cs_per_subfarm": 2,
            "services": ["dns", "smtp"],
        }
        with pytest.raises(TopologyError) as excinfo:
            FarmTopology.from_dict(old_file)
        assert [(e["pass"], e["error"]) for e in excinfo.value.errors] \
            == [("parse", "unknown_key")] * 4
        assert {e["detail"] for e in excinfo.value.errors} == {
            f"topology key {key!r}" for key in
            ("vlan_base", "vlans_per_subfarm", "cs_per_subfarm",
             "services")}
        with pytest.raises(TopologyError) as excinfo:
            FarmTopology.from_dict({
                "name": "old", "subfarms": 1,
                "subfarm_specs": [{"vlans": [100], "cs": ["cs-a"]}]})
        assert {e["detail"] for e in excinfo.value.errors} == {
            "subfarm key 'cs'", "subfarm key 'vlans'"}

    def test_recompile_is_deterministic(self):
        topo = two_host_topology()
        assert topo.compile().digest() == topo.compile().digest()


class TestPlacementCampaign:
    def test_campaign_carries_placement_identity(self):
        placement = two_host_topology(
            inmates_per_subfarm=3).compile()
        campaign = placement.campaign(FARM_TASK, base_seed=7)
        assert len(campaign) == len(placement.shards)
        assert campaign.metadata["placement_digest"] == \
            placement.digest()
        assert campaign.metadata["shard_hosts"] == \
            {"0": "alpha", "1": "beta"}
        for spec in campaign:
            assert spec.params["subfarms"] == 2
            assert spec.params["inmates"] == 3
            assert isinstance(spec.params["seed"], int)

    def test_campaign_spec_digest_stable(self):
        placement = two_host_topology().compile()
        first = placement.campaign(FARM_TASK, base_seed=7)
        second = placement.campaign(FARM_TASK, base_seed=7)
        assert first.spec_digest() == second.spec_digest()
