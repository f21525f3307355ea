"""The per-hop budget, counted rather than timed.

A hop is the path a frame takes from ``Port.send`` on one device to
``receive_frame`` on the next.  These tests pin what it may cost in
Python frames (docs/PERFORMANCE.md, "The per-hop kernel"): heap
ordering never enters Python, the plumbing is two calls (five when
the link has a batch window or the receiving port coalesces), and a
simulator without a live telemetry domain makes no instrument call at
all.
"""

from __future__ import annotations

import pytest

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.link import Link, Port
from repro.net.packet import (
    ACK,
    EthernetFrame,
    IPv4Packet,
    PSH,
    TCPSegment,
)
from repro.obs.export import snapshot
from repro.obs.telemetry import Telemetry
from repro.sim.engine import Simulator
from tests.helpers import RouterHarness, TARGET_IP, TARGET_PORT, python_calls

FRAMES_EACH_WAY = 1000


class _Stub:
    """A device that only counts what reaches it."""

    def __init__(self) -> None:
        self.port = Port(self, "stub")
        self.received = 0

    def receive_frame(self, frame, port) -> None:
        self.received += 1


def _two_stubs(coalesce: bool):
    """Two stubs on one link, 1,000 sends queued each way at distinct
    instants (so the heap is deep and nothing is ever coincident)."""
    sim = Simulator()
    a, b = _Stub(), _Stub()
    Link(sim, a.port, b.port, latency=0.125)
    if coalesce:
        a.port.coalesce = b.port.coalesce = sim
    frame = EthernetFrame(MacAddress(0x020000000001),
                          MacAddress(0x020000000002), b"x")
    for index in range(FRAMES_EACH_WAY):
        sim.schedule_at(float(index), a.port.send, frame)
        sim.schedule_at(index + 0.5, b.port.send, frame)
    return sim, a, b


@pytest.mark.parametrize("coalesce", [False, True])
def test_hop_is_five_python_frames_and_no_python_ordering(coalesce):
    sim, a, b = _two_stubs(coalesce)
    calls = python_calls(sim.run)
    assert (a.received, b.received) == (FRAMES_EACH_WAY, FRAMES_EACH_WAY)
    hops = 2 * FRAMES_EACH_WAY
    assert not [key for key in calls if key[1] == "__lt__"]
    # send | receive_frame by default (send pushes the heap entry
    # itself); to a coalescing port, send -> transmit -> schedule |
    # deliver -> receive_frame.  And the one run() that drove them.
    # Nothing else: no Event.__init__, no instrument, no clock
    # property, no drain_coincident.
    plumbing = ({("link.py", "transmit"): hops,
                 ("engine.py", "schedule"): hops,
                 ("link.py", "deliver"): hops} if coalesce
                else {})
    assert calls == {
        ("engine.py", "run"): 1,
        ("link.py", "send"): hops,
        **plumbing,
        ("test_hop_budget.py", "receive_frame"): hops,
    }


def test_batch_window_hop_costs_the_same():
    sim, a, b = _two_stubs(coalesce=True)
    a.port.link.batch_window = 0.25
    calls = python_calls(sim.run)
    assert a.received + b.received == 2 * FRAMES_EACH_WAY
    assert calls[("engine.py", "schedule_at")] == 2 * FRAMES_EACH_WAY
    assert sum(calls.values()) == 5 * 2 * FRAMES_EACH_WAY + 1


def _ticking_sim():
    """40 ticks at t=1..40, the depth gauge sampled every 8 events."""
    sim = Simulator()
    sim.QUEUE_DEPTH_STRIDE = 8
    ticks = [sim.schedule_at(float(t), lambda: None) for t in range(1, 41)]
    return sim, ticks


def test_sim_instruments_in_a_mid_run_snapshot():
    sim, ticks = _ticking_sim()
    telemetry = Telemetry(clock=lambda: sim.now)
    sim.attach_telemetry(telemetry)
    # Attached after the ticks were queued: those 40 are not counted,
    # exactly as before; the three schedules below are.
    mid = []
    sim.schedule_at(20.5, lambda: mid.append(
        snapshot(telemetry)))
    late = [sim.schedule_at(50.0, lambda: None) for _ in range(2)]
    ticks[4].cancel()
    ticks[9].cancel()
    late[0].cancel()
    sim.run()

    (snap,) = mid
    assert snap["time"] == 20.5
    assert snap["counters"] == {
        "sim.events.scheduled": 3.0,
        "sim.events.fired": 18.0,      # ticks 1..20 less the two dead
        "sim.events.cancelled": 2.0,   # discarded lazily at the head
    }
    # Sampled when the 16th callback returned (tick 18): 43 entries
    # queued in all, 18 popped by then.
    assert snap["gauges"] == {"sim.queue.depth": 43 - 18}

    final = snapshot(telemetry)
    assert final["counters"] == {
        "sim.events.scheduled": 3.0,
        "sim.events.fired": 40.0,      # 38 ticks, the reader, one late
        "sim.events.cancelled": 3.0,
    }
    assert final["gauges"] == {"sim.queue.depth": 0}
    assert sim.events_processed == 40


def test_scheduled_stays_exact_when_a_callback_raises():
    """``sim.events.scheduled`` is read off what left the queue plus
    what is still in it; an event whose callback raised out of
    ``run()`` left it without ever counting as fired."""
    sim = Simulator()
    telemetry = Telemetry(clock=lambda: sim.now)
    sim.attach_telemetry(telemetry)

    def nested():
        sim.schedule(0.5, lambda: 1 / 0)
        sim.step()

    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, nested)
    sim.schedule(3.0, lambda: None).cancel()
    sim.schedule(4.0, lambda: None)
    with pytest.raises(ZeroDivisionError):
        sim.run()
    assert snapshot(telemetry)["counters"] == {
        "sim.events.scheduled": 5.0, "sim.events.fired": 1.0,
        "sim.events.cancelled": 0.0}
    sim.run()
    assert snapshot(telemetry)["counters"] == {
        "sim.events.scheduled": 5.0, "sim.events.fired": 2.0,
        "sim.events.cancelled": 1.0}


def test_detached_simulator_makes_no_instrument_call():
    sim, ticks = _ticking_sim()
    ticks[4].cancel()

    def drive():
        sim.schedule(0.5, lambda: None)
        ticks[9].cancel()
        sim.step()
        sim.run(until=20.0)
        sim.run()

    calls = python_calls(drive)
    assert sim.events_processed == 39
    assert not [key for key in calls
                if key[0] in ("metrics.py", "telemetry.py")]
    assert set(calls) == {
        ("test_hop_budget.py", "drive"), ("test_hop_budget.py", "<lambda>"),
        ("engine.py", "schedule"), ("engine.py", "cancel"),
        ("engine.py", "_note_cancel"), ("engine.py", "step"),
        ("engine.py", "run"),
    }


# ----------------------------------------------------------------------
# The router's share: a table-hit data segment, entry point to emit
# ----------------------------------------------------------------------
def _established_router():
    harness = RouterHarness(seed=7)
    record = harness.establish_flow(2, 40000, client_isn=1000,
                                    dst_isn=9000)
    inmate_ip = record.orig.orig_ip
    frame = EthernetFrame(
        harness.mac, MacAddress("02:00:00:00:00:01"),
        IPv4Packet(inmate_ip, IPv4Address(TARGET_IP), TCPSegment(
            40000, TARGET_PORT, 1001, 5001, ACK | PSH, payload=b"d" * 64)),
        vlan=2)
    reply = IPv4Packet(
        record.dst_ip, record.nat_global, TCPSegment(
            TARGET_PORT, 40000, 9001, 1065, ACK | PSH, payload=b"r" * 64))
    harness.drain()
    return harness, frame, reply


def test_router_table_hit_budget():
    """What the one executor, the shared probe and the resolved egress
    may cost.  An inmate data segment once took 16 Python frames from
    ``inmate_frame`` to the emit callback (five of them
    ``IPv4Address`` ``__eq__``/``__hash__`` and no-op ``metrics.inc``
    calls) and an upstream one 8; with int-keyed tables, instrument
    sites that make no call while telemetry is off, and the entry's
    egress called directly there were 9 and 6; with the executor
    building the rewritten segment and its IPv4 header by slot fill
    (no ``rebind``, no ``wrap``) there are 7 and 4, the last of each
    being the egress itself (docs/PERFORMANCE.md, "The gateway
    kernel")."""
    harness, frame, reply = _established_router()
    router = harness.router

    inmate = python_calls(lambda: router.inmate_frame(frame, 2))
    assert len(harness.upstream) == 1
    del inmate[("test_hop_budget.py", "<lambda>")]
    assert inmate == {
        ("router.py", "inmate_frame"): 1,
        ("router.py", "_inmate_frame_body"): 1,
        ("capture.py", "capture"): 1,
        ("bridge.py", "learn"): 1,
        ("router.py", "_lookup"): 1,
        ("flowtable.py", "apply"): 1,
        ("helpers.py", "send"): 1,            # the entry's egress
    }

    upstream = python_calls(lambda: router.upstream_packet(reply))
    assert len(harness.to_vlan) == 1
    del upstream[("test_hop_budget.py", "<lambda>")]
    assert upstream == {
        ("router.py", "upstream_packet"): 1,
        ("router.py", "_lookup"): 1,
        ("flowtable.py", "apply"): 1,
        ("helpers.py", "send"): 1,            # the entry's egress
    }
