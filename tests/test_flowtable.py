"""Match-action flow tables and batched trunk delivery.

Covers the table's timeout semantics (idle and hard eviction on the
virtual clock, re-miss re-install, byte parity of a flow expiring
mid-conversation), the transactional install guarantee (a failed
compile never leaves orphan entries), batch delivery parity with
per-frame delivery at every layer (``inmate_frame_batch``, the
coalescing port, the whole farm), the placeholders left where the
struct-of-arrays datapath was, and the config/report/telemetry
surfaces riding along.
"""

from __future__ import annotations

import pytest

from repro.farm import FarmConfig
from repro.gateway import handoff
from repro.gateway.router import SubfarmRouter
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.packet import (
    ACK,
    EthernetFrame,
    IPv4Packet,
    PSH,
    SYN,
    TCPSegment,
)
from repro.net.link import Link, Port
from repro.net.wirebatch import BatchOutput, WireBatch
from repro.parallel.tasks import (
    TARGET_IP,
    TARGET_PORT,
    _echo_server,
    _streaming_image,
)
from repro.sim.engine import Simulator
from tests.golden import expected, wire_digest
from tests.helpers import RouterHarness, run_farm_flow_digest

VLAN = 2
SPORT = 40000
CLIENT_ISN = 1000
DST_ISN = 9000


def wire_state(harness: RouterHarness) -> dict:
    return {
        "to_vlan": [p.to_bytes() for p in harness.to_vlan],
        "to_service": [p.to_bytes() for p in harness.to_service],
        "upstream": [p.to_bytes() for p in harness.upstream],
        "counters": dict(harness.router.counters),
        "flows": [
            (str(r.orig), r.phase.value, r.verdict_name,
             r.c2s_packets, r.s2c_packets, r.c2s_bytes, r.s2c_bytes,
             r.last_activity)
            for r in harness.router.flows()
        ],
    }


def pump_once(harness: RouterHarness, record, seq: int) -> None:
    """One data packet in each direction over an established flow."""
    inmate_ip = record.orig.orig_ip
    harness.inmate_tcp(VLAN, inmate_ip, SPORT, TARGET_PORT,
                       seq, 5001, ACK | PSH, b"d" * 64)
    reply = TCPSegment(record.dst_port, SPORT, DST_ISN + 1, seq + 64,
                       ACK | PSH, payload=b"r" * 64)
    harness.router.upstream_packet(IPv4Packet(
        record.dst_ip, record.nat_global or inmate_ip, reply))


# ----------------------------------------------------------------------
# Timeouts
# ----------------------------------------------------------------------
def test_idle_timeout_evicts_and_reinstalls():
    harness = RouterHarness(seed=7)
    harness.router.flowtable_idle_timeout = 30.0
    record = harness.establish_flow(VLAN, SPORT, client_isn=CLIENT_ISN,
                                    dst_isn=DST_ISN)
    table = harness.router.flowtable
    entry = table.rules(record)[0]
    assert entry.idle_timeout == 30.0
    pump_once(harness, record, CLIENT_ISN + 1)
    assert table.hits > 0

    # Quiet past the idle timeout: the next packet's probe must evict
    # the whole flow's rules, miss, and re-install via the slow path.
    harness.sim.run(until=100.0)
    misses_before = table.misses
    pump_once(harness, record, CLIENT_ISN + 65)
    stats = table.stats()
    assert stats["timeout_evictions"]["idle"] == 1
    assert table.misses > misses_before
    assert record.installed, "live flow must re-install after expiry"
    fresh = table.rules(record)[0]
    assert fresh.installed_at == 100.0


def test_hard_timeout_evicts_active_flow():
    harness = RouterHarness(seed=7)
    harness.router.flowtable_hard_timeout = 50.0
    record = harness.establish_flow(VLAN, SPORT, client_isn=CLIENT_ISN,
                                    dst_isn=DST_ISN)
    table = harness.router.flowtable
    assert table.rules(record)[0].expires_at == 50.0

    # Activity does not extend a hard timeout.
    harness.sim.run(until=40.0)
    pump_once(harness, record, CLIENT_ISN + 1)
    assert table.stats()["timeout_evictions"]["hard"] == 0
    harness.sim.run(until=60.0)
    pump_once(harness, record, CLIENT_ISN + 65)
    assert table.stats()["timeout_evictions"]["hard"] == 1
    fresh = table.rules(record)[0]
    assert fresh.expires_at == 60.0 + 50.0


def test_sweep_reclaims_quiet_flows():
    harness = RouterHarness(seed=7)
    harness.router.flowtable_idle_timeout = 30.0
    record = harness.establish_flow(VLAN, SPORT, client_isn=CLIENT_ISN,
                                    dst_isn=DST_ISN)
    table = harness.router.flowtable
    assert len(table.rules(record)) == 2
    harness.sim.run(until=100.0)
    assert harness.router.sweep_flowtable() == 1
    assert not len(table) and not table.rules()
    assert table.stats()["timeout_evictions"]["idle"] == 1
    # Demoted, not gone: the flow's keys still find the controller.
    assert not record.installed
    assert not table.entries[record.orig_key].installed


def _mid_conversation_expiry() -> dict:
    harness = RouterHarness(seed=7)
    harness.router.flowtable_idle_timeout = 30.0
    record = harness.establish_flow(VLAN, SPORT, client_isn=CLIENT_ISN,
                                    dst_isn=DST_ISN)
    pump_once(harness, record, CLIENT_ISN + 1)
    harness.sim.run(until=200.0)
    pump_once(harness, record, CLIENT_ISN + 65)
    pump_once(harness, record, CLIENT_ISN + 129)
    harness.sim.run(until=300.0)
    return wire_state(harness)


#: Digested by tests/golden/regen.py alongside test_fastpath.GOLDEN.
GOLDEN = {"mid-conversation-expiry": _mid_conversation_expiry}


def test_mid_conversation_expiry_byte_parity():
    """A flow whose rules expire mid-conversation (idle gap, then more
    data) must emit byte-identically to the slow-path recording: the
    table-miss packet re-installs and runs through the fresh entry."""
    assert (wire_digest(_mid_conversation_expiry())
            == expected("mid-conversation-expiry"))


# ----------------------------------------------------------------------
# Transactional install
# ----------------------------------------------------------------------
def test_failed_compile_leaves_table_intact():
    harness = RouterHarness(seed=7)
    record = harness.establish_flow(VLAN, SPORT, client_isn=CLIENT_ISN,
                                    dst_isn=DST_ISN)
    table = harness.router.flowtable
    entries_before = {rule.key: rule for rule in table.rules(record)}
    assert len(entries_before) == 2

    dst_isn = record.dst_isn
    record.dst_isn = None  # isn_delta now raises mid-compile
    with pytest.raises(RuntimeError):
        handoff.install(harness.router, record)
    # The failed install must not have uninstalled, replaced, or
    # half-written anything.
    assert record.installed
    for key, entry in entries_before.items():
        assert table.entries[key] is entry

    record.dst_isn = dst_isn
    handoff.install(harness.router, record)
    assert len(table.rules(record)) == len(entries_before)


def test_failed_compile_installs_nothing_from_empty():
    harness = RouterHarness(seed=7)
    record = harness.establish_flow(VLAN, SPORT, client_isn=CLIENT_ISN,
                                    dst_isn=DST_ISN)
    handoff.uninstall(harness.router, record)
    table = harness.router.flowtable
    assert not table.rules()
    record.dst_isn = None
    with pytest.raises(RuntimeError):
        handoff.install(harness.router, record)
    assert not table.rules() and not len(table)
    assert not record.installed


def test_inmate_frame_batch_matches_scalar():
    """The trunk batch entry point: interleaved flows plus a mid-batch
    new flow must emit byte-identically to per-frame ingestion."""
    def build_frames(harness, first, second):
        frames = []
        target = IPv4Address(TARGET_IP)
        for index, record in ((0, first), (1, second), (2, first),
                              (3, first), (4, second)):
            segment = TCPSegment(record.orig.orig_port, TARGET_PORT,
                                 CLIENT_ISN + 1 + 64 * index, 5001,
                                 ACK | PSH, payload=b"d" * 64)
            frames.append(EthernetFrame(
                harness.mac, MacAddress("02:00:00:00:00:01"),
                IPv4Packet(record.orig.orig_ip, target, segment),
                vlan=VLAN))
        # A brand-new flow's SYN lands mid-batch.
        syn = TCPSegment(SPORT + 9, TARGET_PORT, 50, 0, SYN)
        frames.insert(3, EthernetFrame(
            harness.mac, MacAddress("02:00:00:00:00:01"),
            IPv4Packet(first.orig.orig_ip, target, syn), vlan=VLAN))
        return frames

    outcomes = []
    for batched in (True, False):
        harness = RouterHarness(seed=7)
        first = harness.establish_flow(VLAN, SPORT,
                                       client_isn=CLIENT_ISN,
                                       dst_isn=DST_ISN)
        second = harness.establish_flow(VLAN, SPORT + 1,
                                        client_isn=CLIENT_ISN,
                                        dst_isn=DST_ISN)
        harness.drain()
        frames = build_frames(harness, first, second)
        if batched:
            harness.router.inmate_frame_batch(
                [(frame, VLAN) for frame in frames])
        else:
            for frame in frames:
                harness.router.inmate_frame(frame, VLAN)
        outcomes.append(wire_state(harness))
    fast, slow = outcomes
    assert fast == slow


@pytest.mark.parametrize("owner,name", [
    (WireBatch, "append_tcp"), (WireBatch, "append_udp"),
    (WireBatch, "append_packet"), (WireBatch, "materialize"),
    (BatchOutput, "append_run"), (BatchOutput, "serialize"),
    (SubfarmRouter, "ingest_batch"),
])
def test_retired_column_names_raise(owner, name):
    """The column datapath is gone; the names the layer ledger wraps
    remain, in each owner's own namespace, and refuse to run."""
    assert name in owner.__dict__
    with pytest.raises(NotImplementedError):
        owner.__dict__[name](None)


# ----------------------------------------------------------------------
# Engine and link coalescing
# ----------------------------------------------------------------------
def test_drain_coincident_claims_head_run_only():
    sim = Simulator(seed=1)
    seen = []

    def cb(value):
        if value == 1:
            drained = [args[0] for args in sim.drain_coincident(cb)]
            seen.append(("drained", drained))
        seen.append(value)

    def other():
        seen.append("other")

    sim.schedule_at(1.0, cb, 1)
    sim.schedule_at(1.0, cb, 2)
    sim.schedule_at(1.0, other)
    sim.schedule_at(1.0, cb, 3)
    sim.run(until=2.0)
    # cb(1) claims only cb(2): `other` ends the head run, so cb(3)
    # still fires in its original scalar position.
    assert seen == [("drained", [2]), 1, "other", 3]
    assert sim.events_processed == 4


def test_drain_coincident_stops_at_future_events():
    sim = Simulator(seed=1)
    seen = []

    def cb(value):
        if value == 1:
            seen.append([args[0] for args in sim.drain_coincident(cb)])
        seen.append(value)

    sim.schedule_at(1.0, cb, 1)
    sim.schedule_at(1.5, cb, 2)
    sim.run(until=2.0)
    assert seen == [[], 1, 2]


class _BatchingDevice:
    def __init__(self):
        self.batches = []
        self.frames = []

    def receive_frame_batch(self, frames, port):
        self.batches.append(len(frames))
        self.frames.extend(frames)

    def receive_frame(self, frame, port):
        self.batches.append(1)
        self.frames.append(frame)


def _frame(tag: int) -> EthernetFrame:
    return EthernetFrame(MacAddress(0x02 << 40 | tag),
                         MacAddress.broadcast(), b"payload", vlan=2)


def test_port_coalesce_merges_coincident_frames():
    sim = Simulator(seed=1)
    device = _BatchingDevice()
    sender, receiver = Port(object(), "tx"), Port(device, "rx")
    Link(sim, sender, receiver, latency=0.001)
    receiver.coalesce = sim
    frames = [_frame(1), _frame(2), _frame(3)]
    for frame in frames:
        sender.send(frame)
    sim.run(until=1.0)
    assert device.batches == [3]
    assert device.frames == frames
    assert sender.frames_sent == 3


def test_link_batch_window_quantizes_delivery():
    sim = Simulator(seed=1)
    device = _BatchingDevice()
    sender, receiver = Port(object(), "tx"), Port(device, "rx")
    Link(sim, sender, receiver, latency=0.001, batch_window=0.01)
    receiver.coalesce = sim
    first, second = _frame(1), _frame(2)
    sender.send(first)                               # t=0 -> due 0.01
    sim.schedule_at(0.004, sender.send, second)      # 0.005 -> due 0.01
    sim.run(until=1.0)
    assert device.batches == [2]
    assert device.frames == [first, second]


# ----------------------------------------------------------------------
# Farm wiring and config round-trip
# ----------------------------------------------------------------------
def test_farmconfig_roundtrips_flowtable_knobs():
    config = FarmConfig(seed=3, flowtable_idle_timeout=30.0,
                        flowtable_hard_timeout=900.0,
                        batch_window=0.005)
    data = config.to_dict()
    back = FarmConfig.from_dict(data)
    assert back.flowtable_idle_timeout == 30.0
    assert back.flowtable_hard_timeout == 900.0
    assert back.batch_window == 0.005
    # Defaults round-trip as None (everything disabled).
    defaults = FarmConfig.from_dict(FarmConfig().to_dict())
    assert defaults.flowtable_idle_timeout is None
    assert defaults.flowtable_hard_timeout is None
    assert defaults.batch_window is None
    with pytest.raises(ValueError):
        FarmConfig(batch_window=-1.0)


def test_farm_wires_timeouts_to_routers():
    from repro.farm import Farm

    farm = Farm(FarmConfig(seed=3, flowtable_idle_timeout=30.0,
                           flowtable_hard_timeout=900.0))
    sub = farm.create_subfarm("wired")
    assert sub.router.flowtable_idle_timeout == 30.0
    assert sub.router.flowtable_hard_timeout == 900.0
    assert farm.gateway.trunk_port.coalesce is None

    batched = Farm(FarmConfig(seed=3, batch_window=0.005))
    assert batched.gateway.trunk_port.coalesce is batched.sim
    assert batched.gateway.trunk_port.link.batch_window == 0.005
    coincident = Farm(FarmConfig(seed=3, batch_window=0.0))
    assert coincident.gateway.trunk_port.coalesce is coincident.sim
    assert coincident.gateway.trunk_port.link.batch_window is None


def test_farm_batch_window_parity():
    """Whole-farm gate: a zero window is byte-identical to unbatched;
    a positive window preserves every counter and table stat."""
    base = run_farm_flow_digest(seed=23, inmates=2, rounds=12,
                                duration=60.0)
    zero = run_farm_flow_digest(seed=23, inmates=2, rounds=12,
                                duration=60.0, batch_window=0.0)
    windowed = run_farm_flow_digest(seed=23, inmates=2, rounds=12,
                                    duration=60.0, batch_window=0.005)
    assert zero["digest"] == base["digest"]
    assert windowed["counters"] == base["counters"]
    assert windowed["flowtable"] == base["flowtable"]


# ----------------------------------------------------------------------
# Telemetry and report surfaces
# ----------------------------------------------------------------------
def test_flowtable_stats_and_snapshot():
    harness = RouterHarness(seed=7)
    record = harness.establish_flow(VLAN, SPORT, client_isn=CLIENT_ISN,
                                    dst_isn=DST_ISN)
    pump_once(harness, record, CLIENT_ISN + 1)
    table = harness.router.flowtable
    stats = table.stats()
    assert stats["occupancy"] == len(table.rules(record)) == 2
    assert stats["hits"] == 2
    assert stats["installs"] == 2
    snapshot = table.snapshot()
    assert len(snapshot) == 2
    actions = {entry["action"] for entry in snapshot}
    assert actions == {"tcp-c2d", "tcp-d2c"}
    for entry in snapshot:
        assert entry["verdict"] == "FORWARD"
        assert entry["vlan"] == VLAN
        assert entry["idle_timeout"] is None
        assert entry["hard_expires_at"] is None


def _report_of_streaming_farm(inmates):
    from repro.core.policy import AllowAll
    from repro.farm import Farm
    from repro.reporting.report import ActivityReport

    farm = Farm(FarmConfig(seed=5, telemetry=True))
    _echo_server(farm.add_external_host("echo", TARGET_IP))
    sub = farm.create_subfarm("tables")
    sub.set_default_policy(AllowAll())
    for _ in range(inmates):
        sub.create_inmate(image_factory=_streaming_image(6))
    farm.run(until=40.0)
    return sub, ActivityReport.from_subfarms([sub])


def _rule_lines(rendered):
    return [line for line in rendered.splitlines() if " -> " in line]


def test_report_renders_flow_table_section():
    from repro.reporting.report import (FLOWTABLE_RULES_SHOWN,
                                        render_report)

    sub, report = _report_of_streaming_farm(inmates=1)
    installed = len(report.flowtables["tables"]["entries"])
    assert 0 < installed <= FLOWTABLE_RULES_SHOWN
    rendered = render_report(report)
    assert "Flow tables" in rendered
    assert "Subfarm 'tables'" in rendered
    assert "occupancy" in rendered
    assert "tcp-c2d" in rendered
    # Under the cap every installed rule is listed and nothing is elided.
    assert len(_rule_lines(rendered)) == installed
    assert "more (examples/flowtable_dump.py" not in rendered

    # A subfarm that installed no rule renders without the section.
    sub_idle, idle_report = _report_of_streaming_farm(inmates=0)
    assert sub_idle.router.flowtable.installs == 0
    assert "Flow tables" not in render_report(idle_report)


def test_report_caps_flow_table_rules():
    """The rendered section lists the busiest rules only; the report
    object still carries every rule (Figure 7 installs 2,688)."""
    from repro.reporting.report import (FLOWTABLE_RULES_SHOWN,
                                        render_report)

    _sub, report = _report_of_streaming_farm(inmates=8)
    entries = report.flowtables["tables"]["entries"]
    assert len(entries) > FLOWTABLE_RULES_SHOWN
    rendered = render_report(report)
    shown = _rule_lines(rendered)
    assert len(shown) == FLOWTABLE_RULES_SHOWN
    hits = [int(line.split()[3]) for line in shown]
    assert hits == sorted((e["hits"] for e in entries),
                          reverse=True)[:FLOWTABLE_RULES_SHOWN]
    assert (f"  … {len(entries) - FLOWTABLE_RULES_SHOWN} more "
            "(examples/flowtable_dump.py prints all)") in rendered
