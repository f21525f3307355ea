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
        assert vlan not in farm.vlan_pool._in_use
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
            sub.router.trace.store = True  # store the inmate side
            sub.create_inmate(image_factory=idle_image())
            farm.run(until=120)
            assert sub.router.trace.rotated_out == 0
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
        """``failover.VERDICT_RETRIES`` and ``RETRY_BACKOFF`` are
        constants, not fields: two retries, deadlines doubling."""
        _farm, sub, _ = fetching_farm(**self.PARTITIONED)
        (entry,) = sub.router.flow_log
        assert entry.policy == "fail-closed"
        # Deadlines of 3, 6 and 12 s after the SYN at t=31.
        assert (sub.resilience.retries, round(entry.timestamp)) == (2, 52)


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
    "journal": "tests/test_obs_journal.py::TestFarmDeterminism"
               "::test_journal_never_perturbs_the_run",
    "fault_plan": "tests/test_resilience.py::TestFailClosed"
                  "::test_partition_drops_unverdicted_flow",
    "verdict_deadline": "tests/test_resilience.py::TestConfigSurface"
                        "::test_default_farm_has_no_resilience_objects",
    "pending_policy": "tests/test_resilience.py::TestFailOpen"
                      "::test_hung_server_with_forward_policy_fails_open",
    "malice_policy": "tests/test_malice_barrier.py::TestRouterBarrier"
                     "::test_fail_stop_policy_stops_the_subfarm",
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


#: What a deployment sets and no shipped caller does: the paper's
#: address plan (§6.7) and its §5.1 safety thresholds.
ADDRESS_PLAN = "deployment setting: the address plan"
SAFETY_THRESHOLD = "deployment setting: a §5.1 safety threshold"

#: ROADMAP: a field that nothing outside tests/ sets is a constant.
#: Field -> a file under src/ or benchmarks/ whose ``FarmConfig(...)``
#: call passes it, or the deployment setting it is.  An example is not
#: a caller: it shows a field, it does not need one.
FIELD_CALLERS = {
    "seed": "src/repro/experiments/figure1.py",
    "global_networks": ADDRESS_PLAN,
    "control_network": ADDRESS_PLAN,
    "inbound_mode": "src/repro/experiments/worm_capture.py",
    "safety_max_flows_per_window": SAFETY_THRESHOLD,
    "safety_max_flows_per_destination": SAFETY_THRESHOLD,
    "safety_window": SAFETY_THRESHOLD,
    "telemetry": "src/repro/obs/__main__.py",
    "journal": "src/repro/obs/__main__.py",
    "fault_plan": "src/repro/experiments/fault_matrix.py",
    "verdict_deadline": "src/repro/experiments/fault_matrix.py",
    "pending_policy": "src/repro/experiments/fault_matrix.py",
    "malice_policy": "src/repro/experiments/hostile_traffic.py",
    "batch_window": "benchmarks/ledger/workloads.py",
}


def test_callers_table_names_exactly_the_fields():
    assert list(FIELD_CALLERS) == FIELDS


@pytest.mark.parametrize("field", FIELDS)
def test_every_field_has_a_caller_outside_the_tests(field):
    caller = FIELD_CALLERS[field]
    if caller == ADDRESS_PLAN:
        assert field in ("global_networks", "control_network")
        return
    if caller == SAFETY_THRESHOLD:
        assert field.startswith("safety_")
        return
    assert pathlib.PurePath(caller).parts[0] in ("src", "benchmarks")
    path = pathlib.Path(__file__).parent.parent / caller
    passed = {keyword.arg
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "FarmConfig"
              for keyword in node.keywords}
    assert field in passed, f"{caller} passes no {field}= to FarmConfig"


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

    @pytest.mark.parametrize("key", ["flowtable_idle_timeout",
                                     "flowtable_hard_timeout"])
    def test_an_entry_timeout_is_an_unknown_key(self, key):
        """Flow-table rules no longer age: an old document that sets
        either entry timeout is refused, naming the key."""
        document = dict(FarmConfig().to_dict(), **{key: 30.0})
        with pytest.raises(ValueError) as excinfo:
            FarmConfig.from_dict(document)
        assert str(excinfo.value) == f"unknown FarmConfig keys: ['{key}']"

    @pytest.mark.parametrize("key", [
        "journal_capacity", "verdict_retries", "retry_backoff",
        "lifecycle_retry_limit", "lifecycle_retry_backoff",
        "quarantine_max_frames",
        "telemetry_snapshot_interval", "journal_sample_interval"])
    def test_a_constant_is_an_unknown_key(self, key):
        """The six knobs no caller set are constants of their
        components now, and the two sampling intervals are gone (a
        series is snapshots its caller schedules): an old document
        that sets one is refused."""
        document = dict(FarmConfig().to_dict(), **{key: 2})
        with pytest.raises(ValueError) as excinfo:
            FarmConfig.from_dict(document)
        assert str(excinfo.value) == f"unknown FarmConfig keys: ['{key}']"

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
        {"journal": 1}, {"safety_window": True},
        {"verdict_deadline": "5"}, {"global_networks": ""},
        {"control_network": 5}, {"malice_policy": None},
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
