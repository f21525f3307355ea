"""Top-level Farm API: lifecycle, errors, misc plumbing."""

from __future__ import annotations

import ast
import json
import pathlib

import pytest

import repro
from repro import Farm, FarmConfig
from repro.core.policy import AllowAll, DefaultDeny
from repro.gateway.nat import InboundMode
from repro.inmates.images import idle_image
from tests.test_containment_end_to_end import (
    EXTERNAL_WEB_IP,
    http_fetch_image,
    http_server,
)

NAN, INF = float("nan"), float("inf")


class TestFarmApi:
    def test_package_reexports(self):
        assert repro.Farm is Farm
        assert repro.FarmConfig is FarmConfig
        assert isinstance(repro.__version__, str)
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_duplicate_subfarm_name_rejected(self):
        farm = Farm(FarmConfig(seed=1))
        farm.create_subfarm("a")
        with pytest.raises(ValueError):
            farm.create_subfarm("a")

    def test_run_respects_max_events(self):
        farm = Farm(FarmConfig(seed=1))
        sub = farm.create_subfarm("a")
        sub.create_inmate(image_factory=idle_image())
        farm.run(until=600, max_events=5)
        assert farm.sim.events_processed == 5

    def test_remove_inmate_releases_resources(self):
        farm = Farm(FarmConfig(seed=1))
        sub = farm.create_subfarm("a")
        inmate = sub.create_inmate(image_factory=idle_image())
        farm.run(until=60)
        vlan = inmate.vlan
        internal = sub.nat.internal_for(vlan)
        assert internal is not None
        sub.remove_inmate(vlan)
        assert vlan not in sub.inmates
        assert farm.controller.inmate(vlan) is None
        assert sub.nat.internal_for(vlan) is None
        assert farm.gateway.router_for_vlan(vlan) is None
        # The VLAN returns to the pool (reused after the pool cycles
        # around, like ephemeral ports — not immediately).
        assert vlan not in farm.vlan_pool.allocated_ids()
        replacement = sub.create_inmate(image_factory=idle_image())
        assert replacement.vlan != vlan

    def test_specific_vlan_request(self):
        farm = Farm(FarmConfig(seed=1))
        sub = farm.create_subfarm("a")
        inmate = sub.create_inmate(image_factory=idle_image(), vlan=42)
        assert inmate.vlan == 42
        with pytest.raises(Exception):
            sub.create_inmate(image_factory=idle_image(), vlan=42)

    def test_policy_per_inmate_assignment(self):
        farm = Farm(FarmConfig(seed=1))
        sub = farm.create_subfarm("a")
        policy = DefaultDeny()
        inmate = sub.create_inmate(image_factory=idle_image(),
                                   policy=policy)
        assert sub.policy_map.resolve(inmate.vlan) is policy

    def test_deterministic_replay(self):
        """Same seed, same program -> byte-identical activity."""
        def run():
            farm = Farm(FarmConfig(seed=99))
            sub = farm.create_subfarm("a")
            sub.create_inmate(image_factory=idle_image())
            farm.run(until=120)
            return (farm.sim.events_processed,
                    len(sub.router.trace.records),
                    str(sub.nat.bindings()))

        assert run() == run()


# ----------------------------------------------------------------------
# FarmConfig: every field earns its place
# ----------------------------------------------------------------------
def fetching_farm(until=90.0, **config):
    """One inmate, one HTTP fetch at t=31 under AllowAll."""
    farm = Farm(FarmConfig(seed=7, **config))
    http_server(farm.add_external_host("webserver", EXTERNAL_WEB_IP))
    sub = farm.create_subfarm("knobs")
    sub.set_default_policy(AllowAll())
    image, _results = http_fetch_image()
    inmate = sub.create_inmate(image_factory=image)
    farm.run(until=until)
    return farm, sub, inmate


class TestKnobsChangeBehaviour:
    """Farm-level behaviour of the fields no subsystem test sets
    through :class:`FarmConfig`."""

    PARTITIONED = dict(
        verdict_deadline=3.0,
        fault_plan={"specs": [{"kind": "shim_partition", "start": 0.0}]})

    def test_inbound_mode(self):
        def unsolicited(mode):
            farm, sub, inmate = fetching_farm(until=60.0, inbound_mode=mode)
            scanner = farm.add_external_host("scanner", "203.0.113.66")
            scanner.tcp.connect(sub.nat.global_for(inmate.vlan), 445)
            farm.run(until=90.0)
            return [entry for entry in sub.router.flow_log
                    if not entry.inmate_is_originator]

        assert len(unsolicited(InboundMode.FORWARD)) == 1
        assert unsolicited(InboundMode.DROP) == []

    def test_verdict_retries(self):
        def give_up(**config):
            _farm, sub, _ = fetching_farm(**self.PARTITIONED, **config)
            (entry,) = sub.router.flow_log
            assert entry.policy == "fail-closed"
            return sub.resilience.retries, round(entry.timestamp)

        # Deadlines of 3, 6 and 12 s after the SYN at t=31, or just one.
        assert give_up() == (2, 52)
        assert give_up(verdict_retries=0) == (0, 34)

    def test_retry_backoff(self):
        _farm, sub, _ = fetching_farm(**self.PARTITIONED, retry_backoff=4.0)
        # 3 + 12 + 48 s: still waiting where the default has given up.
        assert sub.resilience.retries == 2
        assert sub.router.flow_log == []

    def test_journal_capacity_and_sample_interval(self):
        farm, _sub, _ = fetching_farm(journal=True)
        roomy = farm.journal_snapshot()
        assert roomy["evicted"] == 0 and roomy["rings"] == {}
        farm, _sub, _ = fetching_farm(journal=True, journal_capacity=2,
                                      journal_sample_interval=30.0)
        tight = farm.journal_snapshot()
        assert tight["recorded"] == roomy["recorded"] > 2
        assert tight["evicted"] == tight["recorded"] - 2
        assert len(tight["events"]) == 2
        assert "sim.events" in tight["rings"]


#: ROADMAP: "every FarmConfig field either has a test showing it
#: changes behaviour or goes".  Field -> the test that shows it.
FIELD_EVIDENCE = {
    "seed": "tests/test_sim_engine.py::TestDeterminism"
            "::test_different_seeds_differ",
    "global_networks": "tests/test_gre_tunnel.py::TestTunneledAddressSpace"
                       "::test_pool_spills_into_donated_network",
    "control_network": "tests/test_gateway_kernel.py"
        "::test_demux_map_is_the_first_router_that_owns_the_address",
    "inbound_mode": "tests/test_farm_api.py::TestKnobsChangeBehaviour"
                    "::test_inbound_mode",
    "safety_max_flows_per_window":
        "tests/test_clickbot_and_safety.py::TestSafetyFilter"
        "::test_filter_caps_even_a_forward_happy_policy",
    "safety_max_flows_per_destination":
        "tests/test_clickbot_and_safety.py::TestSafetyFilter"
        "::test_filter_alerts_identify_the_inmate",
    "safety_window": "tests/test_safety_degraded.py"
        "::TestSafetyUnderDegradedMode::test_rate_bounds_hold_while_degraded",
    "telemetry": "tests/test_obs_smoke.py"
                 "::test_disabled_farm_has_null_telemetry",
    "telemetry_snapshot_interval":
        "tests/test_obs_smoke.py::test_farm_run_emits_valid_snapshot",
    "journal": "tests/test_obs_journal.py::TestFarmDeterminism"
               "::test_journal_never_perturbs_the_run",
    "journal_capacity": "tests/test_farm_api.py::TestKnobsChangeBehaviour"
                        "::test_journal_capacity_and_sample_interval",
    "journal_sample_interval":
        "tests/test_farm_api.py::TestKnobsChangeBehaviour"
        "::test_journal_capacity_and_sample_interval",
    "fault_plan": "tests/test_resilience.py::TestFailClosed"
                  "::test_partition_drops_unverdicted_flow",
    "verdict_deadline": "tests/test_resilience.py::TestConfigSurface"
                        "::test_default_farm_has_no_resilience_objects",
    "verdict_retries": "tests/test_farm_api.py::TestKnobsChangeBehaviour"
                       "::test_verdict_retries",
    "retry_backoff": "tests/test_farm_api.py::TestKnobsChangeBehaviour"
                     "::test_retry_backoff",
    "pending_policy": "tests/test_resilience.py::TestFailOpen"
                      "::test_hung_server_with_forward_policy_fails_open",
    "lifecycle_retry_limit": "tests/test_fault_plane.py::TestLifecycleFaults"
                             "::test_exhausted_retry_budget_abandons_inmate",
    "lifecycle_retry_backoff":
        "tests/test_fault_plane.py::TestLifecycleFaults"
        "::test_exhausted_retry_budget_abandons_inmate",
    "malice_policy": "tests/test_malice_barrier.py::TestRouterBarrier"
                     "::test_fail_stop_policy_stops_the_subfarm",
    "quarantine_max_frames": "tests/test_malice_barrier.py::TestRouterBarrier"
                             "::test_config_controls_quarantine_bound",
    "flowtable_idle_timeout":
        "tests/test_flowtable.py::test_farm_wires_timeouts_to_routers",
    "flowtable_hard_timeout":
        "tests/test_flowtable.py::test_farm_wires_timeouts_to_routers",
    "batch_window": "tests/test_flowtable.py::test_farm_batch_window_parity",
}

FIELDS = list(FarmConfig.FIELDS)


def test_evidence_table_names_exactly_the_fields():
    assert list(FIELD_EVIDENCE) == FIELDS


@pytest.mark.parametrize("field", FIELDS)
def test_every_field_names_a_test_that_exists(field):
    path, *names = FIELD_EVIDENCE[field].split("::")
    file = pathlib.Path(__file__).parent.parent / path
    body = ast.parse(file.read_text()).body
    for name in names:
        (node,) = [node for node in body
                   if getattr(node, "name", None) == name]
        body = node.body
    assert isinstance(node, ast.FunctionDef)


class TestFarmConfigShape:
    def test_to_dict_is_the_field_list_in_order(self):
        data = FarmConfig().to_dict()
        assert list(data) == FIELDS
        assert data["global_networks"] == [
            "198.18.0.0/24", "198.18.1.0/24", "198.18.2.0/24",
            "198.18.3.0/24"]
        assert data["control_network"] == "198.18.100.0/24"
        assert data["inbound_mode"] == "forward"
        assert data["fault_plan"] == {"specs": []}

    def test_unknown_key_message(self):
        with pytest.raises(ValueError) as excinfo:
            FarmConfig.from_dict({"seed": 1, "not_a_knob": True,
                                  "cs_probe_interval": 2.5})
        assert str(excinfo.value) == (
            "unknown FarmConfig keys: ['cs_probe_interval', 'not_a_knob']")

    @pytest.mark.parametrize("bad", [
        {"pending_policy": "shrug"}, {"malice_policy": "ignore"},
        {"batch_window": -1.0}, {"inbound_mode": "sideways"},
        {"control_network": "198.18.100.0"},
        # A bool is an int (a 1-second window); inf delivers nothing.
        {"batch_window": True}, {"batch_window": float("inf")},
    ])
    def test_bad_values_refused_at_construction(self, bad):
        with pytest.raises(ValueError):
            FarmConfig(**bad)

    @pytest.mark.parametrize("field, value, legal", [
        # Each refusal used to be accepted, then raised in a worker's
        # create_subfarm (the zeros) or ran wrong: a NaN safety window
        # never expires the filter's history.
        ("safety_window", 0, False), ("safety_window", NAN, False),
        ("safety_window", INF, False), ("safety_window", 0.5, True),
        ("verdict_deadline", 0.0, False), ("verdict_deadline", -1, False),
        ("verdict_deadline", 0.25, True),
        ("safety_max_flows_per_window", -1, False),
        ("safety_max_flows_per_window", 0, True),
        ("safety_max_flows_per_destination", -3, False),
        ("journal_capacity", -1, False), ("journal_capacity", 0, True),
        ("verdict_retries", -1, False), ("verdict_retries", 0, True),
        ("retry_backoff", -2.0, False), ("retry_backoff", 0.5, False),
        ("retry_backoff", 1, True),
        ("lifecycle_retry_limit", -1, False),
        ("lifecycle_retry_backoff", -30.0, False),
        ("lifecycle_retry_backoff", 0, True),
        ("quarantine_max_frames", -1, False),
        ("flowtable_idle_timeout", -1.0, False),
        ("flowtable_idle_timeout", NAN, False),
        ("flowtable_hard_timeout", -5, False),
        ("flowtable_hard_timeout", NAN, False),
        ("flowtable_hard_timeout", 50, True),
        ("telemetry_snapshot_interval", -1.0, False),
        ("telemetry_snapshot_interval", NAN, False),
        ("journal_sample_interval", INF, False),
        ("journal_sample_interval", 0, True),
    ])
    def test_numbers_that_break_later_are_refused_at_construction(
            self, field, value, legal):
        document = json.loads(json.dumps({field: value}))
        for build in (lambda: FarmConfig(**{field: value}),
                      lambda: FarmConfig.from_dict(document)):
            if legal:
                assert getattr(build(), field) == value
            else:
                with pytest.raises(ValueError, match=f"^{field} must be"):
                    build()

    @pytest.mark.parametrize("window", [0, 0.0, 0.005])
    def test_finite_batch_windows_accepted(self, window):
        assert FarmConfig(batch_window=window).batch_window == window

    @pytest.mark.parametrize("document", [
        {"global_networks": 5}, {"global_networks": [1]},
        {"control_network": None}, {"batch_window": "x"},
        {"fault_plan": 7}, [], 1, None,
        json.loads('{"batch_window": Infinity}'),
        json.loads('{"batch_window": true}'),
    ])
    def test_wrongly_shaped_document_is_a_value_error(self, document):
        with pytest.raises(ValueError):
            FarmConfig.from_dict(document)

    @pytest.mark.parametrize("document", [
        {"seed": "x"}, {"seed": 1.5}, {"safety_window": "x"},
        {"safety_max_flows_per_window": None}, {"telemetry": None},
        {"journal": 1}, {"journal_capacity": True},
        {"verdict_retries": 2.0}, {"global_networks": ""},
        {"control_network": 5}, {"quarantine_max_frames": "1024"},
        {"fault_plan": {"specs": ""}},
    ])
    def test_every_field_is_typed_at_from_dict(self, document):
        # Before the typed field table each of these built a config,
        # which then failed later, inside a worker, or never.
        with pytest.raises(ValueError, match="field"):
            FarmConfig.from_dict(document)

    def test_keyword_that_is_not_a_field_is_a_type_error(self):
        with pytest.raises(TypeError, match="cs_probe_interval"):
            FarmConfig(seed=1, cs_probe_interval=2.5)
