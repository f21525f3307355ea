"""Match-action flow tables and the trunk's delivery window.

Covers a rule's lifetime (it stays installed through a quiet gap and
leaves with its flow at the housekeeping sweep, byte parity of a flow
quiet mid-conversation), the transactional install guarantee (a failed
compile never leaves orphan entries), the delivery window (arrival
instants on a windowed link, whole-farm parity and pins), the
placeholders left where the batch paths were, and the
config/report/telemetry surfaces riding along.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

import pytest

from repro.farm import FarmConfig
from repro.gateway import handoff
from repro.gateway.flowtable import FlowTable, Row
from repro.gateway.gateway import Gateway
from repro.gateway.router import SubfarmRouter
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.packet import (
    ACK,
    EthernetFrame,
    IPv4Packet,
    PSH,
    TCPSegment,
)
from repro.net.http import echo
from repro.net.link import Link, Port
from repro.net.wirebatch import BatchOutput, WireBatch
from repro.parallel.tasks import TARGET_IP, TARGET_PORT, farm_digest
from repro.services.dhcp import DhcpClient
from repro.sim.engine import Simulator
from tests.golden import expected, wire_digest
from tests.helpers import RouterHarness, run_farm_flow_digest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                "benchmarks", "ledger"))
import workloads  # noqa: E402

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
            for r in harness.records
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
# A rule lives as long as its flow
# ----------------------------------------------------------------------
def test_a_quiet_flow_keeps_its_rules():
    """Rules installed at the verdict carry the flow after a quiet
    gap: every packet is a hit, nothing is re-installed."""
    harness = RouterHarness(seed=7)
    record = harness.establish_flow(VLAN, SPORT, client_isn=CLIENT_ISN,
                                    dst_isn=DST_ISN)
    table = harness.router.flowtable
    rules = table.rules(record)
    pump_once(harness, record, CLIENT_ISN + 1)
    misses, installs = table.misses, table.installs
    harness.sim.run(until=500.0)
    pump_once(harness, record, CLIENT_ISN + 65)
    assert table.rules(record) == rules
    assert [rule.hits for rule in rules] == [2, 2]
    assert (table.misses, table.installs) == (misses, installs)


def test_sweep_reclaims_quiet_flows():
    """The housekeeping sweep evicts a flow idle past
    ``flow_idle_timeout`` — its keys, its rules with them — and leaves
    one that is not."""
    harness = RouterHarness(seed=7)
    router = harness.router
    record = harness.establish_flow(VLAN, SPORT, client_isn=CLIENT_ISN,
                                    dst_isn=DST_ISN)
    table = router.flowtable
    assert len(table.rules(record)) == 2
    # Last active at 100 s: the 600 s housekeeping tick leaves it.
    harness.sim.run(until=100.0)
    pump_once(harness, record, CLIENT_ISN + 1)
    harness.sim.run(until=699.0)
    assert router.sweep_flowtable() == 0 and len(table) == 2
    harness.sim.run(until=700.0)
    assert router.sweep_flowtable() == 1
    assert not len(table) and not table.entries and not record.keys
    assert table.stats()["evictions"] == 2


def _mid_conversation_expiry() -> dict:
    harness = RouterHarness(seed=7)
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
    """A flow quiet mid-conversation (a gap, then more data) emits
    byte-identically to the slow-path recording.  The scenario keeps
    its recorded name: it was recorded, and held, while a 30 s entry
    idle timeout demoted the rules in the gap and the next packet
    re-installed them; the rules now stay, and the wire is the
    same."""
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


def test_unbind_a_subset_of_a_flows_keys():
    """Some of a flow's keys leave with their rules, and the flow keeps
    the rest; a key a newer flow has since bound stays that flow's."""

    class Rule(Row):
        installed = True

    table = FlowTable("sub")
    old, new = SimpleNamespace(keys=[]), SimpleNamespace(keys=[])
    for row in (Row("a", old, 0), Row("b", old, 0), Rule("r", old, 0),
                Row("b", new, 0)):
        table.bind(row)
    assert len(table) == 1
    assert table.unbind(old, ["a", "b"]) == 0
    assert old.keys == ["r"] and new.keys == ["b"]
    assert set(table.entries) == {"b", "r"}
    assert table.entries["b"].record is new
    assert table.unbind(old, ["r"]) == 1
    assert old.keys == [] and len(table) == 0


@pytest.mark.parametrize("owner,name", [
    (WireBatch, "append_tcp"), (WireBatch, "append_udp"),
    (WireBatch, "append_packet"), (WireBatch, "materialize"),
    (BatchOutput, "append_run"), (BatchOutput, "serialize"),
    (SubfarmRouter, "ingest_batch"),
    (Port, "deliver"), (Link, "transmit"),
    (Gateway, "receive_frame_batch"), (SubfarmRouter, "inmate_frame_batch"),
])
def test_retired_column_names_raise(owner, name):
    """The column datapath and the coalesced trunk delivery are gone;
    the names the layer ledger wraps remain, in each owner's own
    namespace, and refuse to run."""
    assert name in owner.__dict__
    with pytest.raises(NotImplementedError):
        owner.__dict__[name](None)


# ----------------------------------------------------------------------
# The delivery window
# ----------------------------------------------------------------------
class _RecordingDevice:
    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive_frame(self, frame, port):
        self.arrivals.append((self.sim.now, frame))


def _frame(tag: int) -> EthernetFrame:
    return EthernetFrame(MacAddress(0x02 << 40 | tag),
                         MacAddress.broadcast(), b"payload", vlan=2)


def test_link_batch_window_quantizes_delivery():
    """A windowed link rounds each arrival up to the next window
    boundary; the frames still arrive one event each, in send order."""
    sim = Simulator(seed=1)
    device = _RecordingDevice(sim)
    sender, receiver = Port(object(), "tx"), Port(device, "rx")
    Link(sim, sender, receiver, latency=0.001, batch_window=0.01)
    first, second, third = _frame(1), _frame(2), _frame(3)
    sender.send(first)                               # t=0 -> due 0.01
    sim.schedule_at(0.004, sender.send, second)      # 0.005 -> due 0.01
    sim.schedule_at(0.0095, sender.send, third)      # 0.0105 -> due 0.02
    sim.run(until=1.0)
    assert device.arrivals == [(0.01, first), (0.01, second),
                               (0.02, third)]
    assert sim.events_processed == 5


# ----------------------------------------------------------------------
# Farm wiring and config round-trip
# ----------------------------------------------------------------------
def test_farmconfig_roundtrips_batch_window():
    back = FarmConfig.from_dict(
        FarmConfig(seed=3, batch_window=0.005).to_dict())
    assert back.batch_window == 0.005
    # The default round-trips as None (per-frame delivery).
    assert FarmConfig.from_dict(FarmConfig().to_dict()).batch_window is None
    with pytest.raises(ValueError):
        FarmConfig(batch_window=-1.0)


def test_farm_wires_batch_window_to_the_trunk():
    from repro.farm import Farm

    batched = Farm(FarmConfig(seed=3, batch_window=0.005))
    assert batched.gateway.trunk_port.link.batch_window == 0.005
    for window in (None, 0.0):
        farm = Farm(FarmConfig(seed=3, batch_window=window))
        assert farm.gateway.trunk_port.link.batch_window is None


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


#: The ledger-shaped stream farm (``workloads.build_stream(seed=11,
#: seconds=3.0)``) run to its cutoff: ``(farm_digest, events
#: processed, frames the gateway received)`` per trunk window, recorded
#: while a window still went through the coalescing trunk delivery.  A
#: zero window is no window; a positive one moves only arrival times.
WINDOWED_TRUNK_PINS = {
    None: ("e12196e97acfe138b566da47d903408ca9b3a384d03c85418d91f27b59a08b1d",
           96340, 24081),
    0.0: ("e12196e97acfe138b566da47d903408ca9b3a384d03c85418d91f27b59a08b1d",
          96340, 24081),
    0.005: ("a06ebf79451b0ec97833eb0dfb85970959795abf73638e77f2f7f9f66fa5893f",
            96340, 24081),
}


@pytest.mark.parametrize("window", list(WINDOWED_TRUNK_PINS))
def test_windowed_stream_farm_is_pinned(window):
    built = workloads.build_stream(seed=11, seconds=3.0,
                                   batch_window=window)
    farm = built.farm
    farm.run(until=built.until)
    assert (farm_digest(farm)[0], farm.sim.events_processed,
            farm.gateway.frames_received) == WINDOWED_TRUNK_PINS[window]


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


def _held_stream_image(rounds: int, chunk: int = 512):
    """An inmate that ping-pongs ``rounds`` chunks with the echo host
    and then holds its connection open: a finished flow leaves the
    table, so only an open one has rules for a report to list."""
    def image(host):
        def configured(h):
            def start():
                conn = h.tcp.connect(IPv4Address(TARGET_IP), TARGET_PORT)
                sent = [1]

                def on_data(c, data):
                    if sent[0] < rounds:
                        sent[0] += 1
                        c.send(b"x" * chunk)

                conn.on_established = lambda c: c.send(b"x" * chunk)
                conn.on_data = on_data

            h.sim.schedule(1.0, start, label="stream-start")

        DhcpClient(host, on_configured=configured).start()

    return image


def _report_of_streaming_farm(inmates):
    from repro.core.policy import AllowAll
    from repro.farm import Farm
    from repro.reporting.report import StreamingReport

    farm = Farm(FarmConfig(seed=5, telemetry=True))
    echo(farm.add_external_host("echo", TARGET_IP), TARGET_PORT)
    sub = farm.create_subfarm("tables")
    sub.set_default_policy(AllowAll())
    streams = StreamingReport([sub])
    for _ in range(inmates):
        sub.create_inmate(image_factory=_held_stream_image(6))
    farm.run(until=40.0)
    return sub, streams.report()


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
