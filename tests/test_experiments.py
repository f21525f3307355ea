"""Experiment harnesses: the registry row by row, then strictness
matrix, classification, policy iteration, containment trade-off,
scalability, raw iron and the shapes the figure harnesses reproduce."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments.classification import (
    fingerprint_sample,
    run_classification,
    run_split_personality,
)
from repro.experiments.containment_tradeoff import run_all_regimes
from repro.experiments.figure1 import run_figure1
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.flow_modes import observe_all_modes
from repro.experiments.handoff_ablation import run_ablation
from repro.experiments.policy_iteration import develop_families, develop_policy
from repro.experiments.rawiron_cycle import run_comparison
from repro.experiments.registry import ARTEFACTS
from repro.experiments.scalability import (
    run_cs_load,
    run_gateway_load,
    vlan_capacity_demo,
)
from repro.experiments.smtp_strictness import run_matrix
from repro.malware.corpus import Sample

pytestmark = [pytest.mark.integration, pytest.mark.slow]

#: Per registry id, the overrides that make the row's cheapest run
#: still exercising all of ``run`` and ``render``.
SMALLEST = {
    "table1-worms": {"inmates": 2, "duration": 300.0},
    "fig1-architecture": {"duration": 40.0},
    "fig2-modes": {"duration": 60.0},
    "fig3-subfarms": {"duration": 60.0},
    "fig4-shim-layout": {},
    "fig5-rewrite-ladder": {"duration": 60.0},
    "fig6-config": {},
    "fig7-report": {"duration": 120.0},
    "policy-iteration": {"duration": 100.0},
    "containment-tradeoff": {"duration": 120.0},
    "ablation-handoff": {"fetches": 1, "duration": 60.0},
    "rawiron": {"machines": 2},
    "classification": {"corpus_size": 3, "executions": 2, "duration": 60.0},
    "error-codes": {"duration": 90.0},
    "smtp-strictness": {"duration": 100.0},
    "storm-iframe": {"duration": 150.0},
    "waledac-fidelity": {"duration": 120.0},
    "scalability": {"duration": 40.0},
    "gateway-load-sweep": {"count": 2, "subfarms": 1, "inmates_per": 1,
                           "duration": 60.0},
    "streaming-farm": {"count": 2, "subfarms": 1, "inmates_per": 1,
                       "duration": 60.0},
    "fault-matrix": {"quick": True, "duration": 60.0},
    "hostile-traffic": {"duration": 60.0},
}


def _replayable(row, text):
    """The rendered bytes, minus the wall-clock seconds a campaign
    summary reports."""
    if not row.sweep:
        return text
    summary = json.loads(text)
    summary.pop("wall_seconds", None)
    for shard in summary.get("shards", ()):
        del shard["seconds"]
    return json.dumps(summary, sort_keys=True)


class TestRegistry:
    def test_every_row_has_smallest_parameters(self):
        assert list(SMALLEST) == list(ARTEFACTS)
        for row in ARTEFACTS.values():
            assert set(SMALLEST[row.id]) <= set(row.params), row.id

    def test_paper_rows_are_the_tracked_files(self):
        tracked = pathlib.Path(__file__).parent.parent / "benchmarks/output"
        assert sorted(row.filename for row in ARTEFACTS.values()
                      if not row.sweep) \
            == sorted(path.name for path in tracked.iterdir())

    @pytest.mark.parametrize("row", ARTEFACTS.values(), ids=list(ARTEFACTS))
    def test_row_runs_renders_and_replays(self, row):
        params = dict(row.defaults(), **SMALLEST[row.id])
        rendered = row.render(row.run(**params))
        assert rendered.strip()
        assert _replayable(row, row.render(row.run(**params))) \
            == _replayable(row, rendered)


class TestSmtpStrictnessMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        return run_matrix(duration=400)

    def test_connection_level_healthy_everywhere(self, matrix):
        # The deceptive part of the §7.1 lesson: sessions look fine
        # regardless of strictness.
        for cell in matrix.values():
            assert cell.sessions > 20

    def test_quirky_bot_starves_on_strict_sink(self, matrix):
        assert matrix[("grum", "strict")].data_transfers == 0

    def test_quirky_bot_fine_on_lenient_sink(self, matrix):
        assert matrix[("grum", "lenient")].content_ratio > 0.9

    def test_clean_bot_unaffected_by_strictness(self, matrix):
        assert matrix[("megad", "strict")].content_ratio > 0.9
        assert matrix[("megad", "lenient")].content_ratio > 0.9


class TestClassification:
    def test_families_have_distinct_fingerprints(self):
        prints = {
            family: fingerprint_sample(Sample(family), duration=120,
                                       seed=50 + i)
            for i, family in enumerate(
                ("rustock", "grum", "megad", "waledac"))
        }
        for a in prints:
            for b in prints:
                if a != b:
                    assert prints[a].similarity(prints[b]) < 0.5

    def test_same_family_fingerprints_converge(self):
        a = fingerprint_sample(Sample("grum"), duration=120, seed=60)
        b = fingerprint_sample(Sample("grum", params={"variant": 9}),
                               duration=120, seed=61)
        assert a.similarity(b) > 0.9

    def test_batch_classification_is_accurate_and_surfaces_mislabels(self):
        result = run_classification(corpus_size=30, duration=150.0)
        assert result.accuracy > 0.9
        assert result.label_disagreements > 0

    def test_split_personality_shows_both_faces(self):
        outcomes = run_split_personality(executions=8, duration=120)
        assert "grum" in outcomes and "megad" in outcomes


class TestPolicyIteration:
    def test_grum_converges_with_zero_harm(self):
        history = develop_policy("grum", duration=300)
        assert history[-1].fully_alive
        assert 2 <= len(history) <= 3
        assert all(h.harm_outside == 0 for h in history)

    def test_rustock_needs_an_extra_round(self):
        history = develop_policy("rustock", duration=300)
        assert history[-1].fully_alive
        # Two distinct C&C shapes (beacon + campaign fetch) to learn.
        assert len(history[-1].rules) >= 2
        assert all(h.harm_outside == 0 for h in history)

    def test_iterations_needed_per_family(self):
        histories = develop_families(duration=400.0)
        for family, history in histories.items():
            assert history[-1].fully_alive, family
            assert all(h.harm_outside == 0 for h in history), family
        # Rustock has two C&C shapes to learn.
        assert {family: len(history)
                for family, history in histories.items()} \
            == {"grum": 2, "rustock": 3, "megad": 2}

    def test_first_iteration_reveals_the_cnc_shape(self):
        history = develop_policy("megad", duration=300)
        first = history[0]
        assert first.new_rule is not None
        assert first.new_rule.port == 4443


class TestContainmentTradeoff:
    @pytest.fixture(scope="class")
    def regimes(self):
        return run_all_regimes(duration=600)

    def test_unconstrained_maximizes_both(self, regimes):
        unconstrained = regimes["unconstrained"]
        assert unconstrained.harm_score > 100
        assert unconstrained.behaviour_score > 100
        assert unconstrained.inmates_blacklisted > 0

    def test_isolation_minimizes_both(self, regimes):
        isolation = regimes["isolation"]
        assert isolation.harm_score == 0
        assert isolation.families_active == 0

    def test_static_rules_lose_most_behaviour(self, regimes):
        botlab = regimes["botlab-static"]
        gq = regimes["gq"]
        assert botlab.families_active < gq.families_active
        assert botlab.behaviour_score < gq.behaviour_score / 2

    def test_gq_elicits_unconstrained_behaviour_at_zero_harm(self, regimes):
        gq = regimes["gq"]
        unconstrained = regimes["unconstrained"]
        assert gq.harm_score == 0
        assert gq.behaviour_score > unconstrained.behaviour_score * 0.8
        assert gq.families_active == 4
        assert gq.spam_harvested > 100


class TestScalability:
    def test_vlan_ceiling(self):
        demo = vlan_capacity_demo()
        assert demo["capacity"] == 4093
        assert demo["allocated"] == 4093

    def test_single_server_queues_grow_with_load(self):
        light = run_cs_load(inmates=3, cluster_size=1, duration=150)
        heavy = run_cs_load(inmates=12, cluster_size=1, duration=150)
        assert heavy.mean_queue_delay > light.mean_queue_delay

    def test_cluster_relieves_the_bottleneck(self):
        single = run_cs_load(inmates=12, cluster_size=1, duration=150)
        pair = run_cs_load(inmates=12, cluster_size=2, duration=150)
        cluster = run_cs_load(inmates=12, cluster_size=4, duration=150)
        assert (cluster.mean_queue_delay < pair.mean_queue_delay
                < single.mean_queue_delay)
        # Sticky per-VLAN selection balances the population.
        assert len(cluster.load_balance) == 4
        assert min(cluster.load_balance) > 0

    def test_gateway_carries_paper_operating_point(self):
        result = run_gateway_load(subfarms=5, inmates_per=8,
                                  flow_interval=5.0, duration=120)
        assert result.flows_created > 5 * 8 * (120 / 5) * 0.5
        assert result.packets_relayed > result.flows_created


class TestRawIron:
    @pytest.fixture(scope="class")
    def comparison(self):
        return run_comparison(machines=4)

    def test_network_cycle_about_six_minutes(self, comparison):
        cycle = comparison["network-boot"].mean_cycle
        assert 300 <= cycle <= 420  # "around 6 minutes"

    def test_local_restore_about_ten_minutes(self, comparison):
        cycle = comparison["local-partition"].mean_cycle
        assert 500 <= cycle <= 700  # "around 10 minutes"

    def test_local_restore_wins_for_the_pool(self, comparison):
        assert (comparison["local-partition"].pool_turnaround
                < comparison["network-boot"].pool_turnaround)

    def test_every_machine_reimaged(self, comparison):
        for result in comparison.values():
            assert len(result.cycle_times) == 4


class TestFlowModes:
    """Figure 2: what each party saw, per mode."""

    @pytest.fixture(scope="class")
    def observations(self):
        return observe_all_modes()

    def test_forward_and_rate_limit_reach_the_real_target(self, observations):
        forward, limited = observations["forward"], observations["rate-limit"]
        assert forward.reached_real_target
        assert forward.client_saw_response == b"REAL"
        assert limited.reached_real_target
        assert limited.client_saw_response == b"REAL"
        # A 4-byte response fits the shaper's burst; shaping-delay effects
        # are covered by tests/test_containment_end_to_end.py::TestLimit.
        assert limited.completion_time >= forward.completion_time

    def test_drop_resets_the_client(self, observations):
        assert not observations["drop"].reached_real_target
        assert observations["drop"].client_reset

    def test_redirect_lands_on_the_alternate(self, observations):
        redirect = observations["redirect"]
        assert redirect.reached_alternate
        assert not redirect.reached_real_target
        assert redirect.client_saw_response == b"ALTERNATE"

    def test_reflect_idles_at_the_sink(self, observations):
        reflect = observations["reflect"]
        assert reflect.reached_sink
        assert not reflect.reached_real_target
        assert reflect.client_saw_response is None
        assert not reflect.client_reset

    def test_rewrite_changes_what_the_client_sees(self, observations):
        assert observations["rewrite"].reached_real_target
        assert observations["rewrite"].client_saw_response == b"FAKE"


class TestFigureHarnesses:
    def test_figure1_every_inmate_comes_up_behind_nat(self):
        _farm, subs = run_figure1()
        for sub in subs:
            assert len(sub.inmates) == 4
            for vlan, inmate in sub.inmates.items():
                assert inmate.host.ip.is_rfc1918()
                assert sub.nat.global_for(vlan) is not None
        # VLAN ranges are disjoint across the whole farm.
        all_vlans = [v for sub in subs for v in sub.router.vlan_ids]
        assert len(all_vlans) == len(set(all_vlans)) == 12

    def test_figure3_one_fetch_per_subfarm_three_fates(self):
        subs, served = run_figure3()
        assert len(served) == 1
        assert subs["development"].sinks["sink"].connections_accepted == 1
        assert {name: dict(sub.containment_server.verdict_counts)
                for name, sub in subs.items()} == {
            "deployment": {"FORWARD": 1}, "development": {"REFLECT": 1},
            "locked": {"DROP": 1}}

    def test_figure5_ladder_carries_both_shims(self):
        result = run_figure5()
        assert result.request_on_wire == "/cleanup.exe"
        assert result.response_to_inmate.startswith("404")
        assert result.seq_bump_observed
        assert result.shim_lengths[0] == 24       # request shim
        assert result.shim_lengths[1] >= 56       # response shim

    def test_figure6_config_reaches_the_policies(self):
        config, sub, policies = run_figure6()
        assert sub.policy_map.resolve(16).policy_name == "Rustock"
        assert sub.policy_map.resolve(19).policy_name == "Grum"
        assert sub.policy_map.resolve(20).policy_name == "DefaultDeny"
        assert len(config.triggers_for_vlan(17)) == 1
        # The autoinfect service section configured the policies.
        for policy in policies.values():
            assert str(policy.infect_address) == "10.9.8.7"
            assert policy.infect_port == 6543

    def test_handoff_spares_the_containment_server(self):
        handoff, in_path = run_ablation(fetches=3, duration=120.0).values()
        # Identical application outcome...
        assert handoff["completed"] == in_path["completed"] == 3
        assert handoff["bytes"] == in_path["bytes"]
        # ...at a fraction of the containment-server cost.
        assert handoff["cs_packets"] * 5 < in_path["cs_packets"]
