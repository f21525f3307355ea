"""The trace-memory budget, counted rather than timed.

GQ records every frame for the life of a deployment (§5.6), so what a
captured frame costs in memory bounds how long a farm can run.  These
tests pin that cost (docs/PERFORMANCE.md, "Trace memory"): a TCP
capture is one packed header and one payload reference — at most 80
bytes of store, one Python frame, no object of its own.  A subfarm's
inmate-side trace stores nothing (``store = False``): a capture there
is one Python frame and no store at all, and an observer is handed the captured frame
itself, never a rebuilt one.
"""

from __future__ import annotations

import sys

import pytest

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.capture import PacketTrace
from repro.net.packet import ACK, EthernetFrame, IPv4Packet, TCPSegment
from tests.helpers import churn_farm, python_calls

FRAMES = 20_000
BYTES_PER_FRAME = 80


def tcp_frame(payload: bytes = b"x" * 512) -> EthernetFrame:
    segment = TCPSegment(40000, 80, seq=0x89ABCDEF, ack=0x01234567,
                         flags=ACK, payload=payload)
    packet = IPv4Packet(IPv4Address("10.3.0.7"), IPv4Address("192.0.2.80"),
                        segment, ident=0xBEEF)
    return EthernetFrame(MacAddress(0x02E58E4EC887), MacAddress(0x020000000001),
                         packet, vlan=12)


def store_bytes(trace: PacketTrace) -> int:
    """What the trace's own buffers occupy, payload bytes excluded
    (those are shared with the packet plane, not the trace's)."""
    return sys.getsizeof(trace._headers) + sys.getsizeof(trace._payloads)


def test_a_tcp_capture_costs_at_most_80_bytes_of_store():
    trace = PacketTrace()
    frame = tcp_frame()
    empty = store_bytes(trace)
    for index in range(FRAMES):
        trace.capture(index * 0.001, frame, point="inmate")
    per_frame = (store_bytes(trace) - empty) / FRAMES
    assert len(trace) == FRAMES
    assert per_frame <= BYTES_PER_FRAME, per_frame
    # And the frame is all there: nothing was traded away for the size.
    assert trace.records[FRAMES - 1].frame.to_bytes() == frame.to_bytes()


def test_two_captures_of_one_packet_share_its_payload():
    """The inmate-side and upstream views of a relayed packet hold the
    same ``bytes`` object, as the packet plane itself does."""
    inmate, upstream = PacketTrace("inmate-side"), PacketTrace("upstream")
    frame = tcp_frame()
    inmate.capture(1.0, frame, point="inmate")
    upstream.capture(1.0, frame, point="upstream-out")
    payload = frame.ip.tcp.payload
    assert inmate._payloads[0] is upstream._payloads[0] is payload
    assert inmate.records[0].ip.tcp.payload is payload


@pytest.mark.parametrize("stored", [None, 64, 5000])
def test_a_bounded_trace_holds_a_bounded_store(stored):
    """A trace whose store is switched off after ``stored`` captures
    holds those and grows no further; one never switched off (None)
    holds every frame."""
    trace = PacketTrace()
    frame = tcp_frame()
    for index in range(FRAMES):
        if index == stored:
            trace.store = False
        trace.capture(index * 0.001, frame, point="inmate")
    held = FRAMES if stored is None else stored
    assert (len(trace), trace.rotated_out) == (held, FRAMES - held)
    assert store_bytes(trace) <= held * BYTES_PER_FRAME + 256


@pytest.mark.parametrize("stored", [None, 64])
def test_capture_is_one_python_frame(stored):
    trace = PacketTrace()
    frame = tcp_frame()

    def run():
        for index in range(1000):
            if index == stored:
                trace.store = False
            trace.capture(index * 0.001, frame, point="inmate")

    calls = python_calls(run)
    # The first capture registers its point; a switched-off store adds
    # no frame.
    assert calls == {
        ("test_capture_budget.py", "run"): 1,
        ("capture.py", "capture"): 1000,
        ("capture.py", "_point_code"): 1,
    }


def test_a_store_off_trace_keeps_nothing():
    """``store = False`` with nobody subscribed: no row, no payload,
    every capture counted as rotated out — in one Python frame per
    capture (the point is never even registered)."""
    trace = PacketTrace(store=False)
    frame = tcp_frame()

    def run():
        for index in range(10_000):
            trace.capture(index * 0.001, frame, point="inmate")

    calls = python_calls(run)
    assert calls == {
        ("test_capture_budget.py", "run"): 1,
        ("capture.py", "capture"): 10_000,
    }
    assert (trace._headers, trace._payloads) == (bytearray(), [])
    assert (len(trace), trace.rotated_out) == (0, 10_000)


@pytest.mark.parametrize("stored", [None, 0])
def test_an_observed_capture_hands_over_the_captured_frame(stored):
    """No record is rebuilt from the packed row: every observer gets
    the one record, around the very frame that was captured, whether
    the store is on (``stored`` None) or off (0)."""
    trace = PacketTrace(store=stored is None)
    frame = tcp_frame()
    seen = []
    trace.subscribe(seen.append)
    trace.subscribe(seen.append)

    def run():
        for index in range(100):
            trace.capture(index * 0.001, frame, point="inmate")

    calls = python_calls(run)
    assert calls[("capture.py", "_build")] == 0
    assert calls[("capture.py", "capture")] == 100
    assert len(seen) == 200
    assert all(a is b for a, b in zip(seen[0::2], seen[1::2]))
    assert all(record.frame is frame for record in seen)
    assert [(r.timestamp, r.point) for r in seen[::2]] == [
        (index * 0.001, "inmate") for index in range(100)]
    assert len(trace) == (100 if stored is None else 0)


def test_a_default_churn_farm_stores_no_inmate_side_frame():
    farm, fetched = churn_farm(seed=11, subfarms=2, inmates_per=3,
                               stop=60.0)
    farm.run(until=70.0)
    assert fetched and all(fetched)
    for sub in farm.subfarms.values():
        trace = sub.router.trace
        assert not trace.store
        assert (len(trace), len(trace._payloads), len(trace._headers)) \
            == (0, 0, 0), sub.name
        assert trace.rotated_out > 0, sub.name
    assert len(farm.gateway.upstream_trace) > 0


def test_reading_a_record_back_is_two_python_frames():
    """The read side (what a campaign shard pays to digest and check
    its upstream trace): one generator step and one decode per record.
    Headers are unpacked a chunk at a time in C and the interned
    addresses cost no constructor call — it was twelve frames."""
    trace = PacketTrace()
    frame = tcp_frame()
    for index in range(3000):
        trace.capture(index * 0.001, frame, point="upstream-out")

    def run():
        for record in trace.records:
            pass

    calls = python_calls(run)
    assert calls == {
        ("test_capture_budget.py", "run"): 1,
        ("capture.py", "__iter__"): 3001,       # one more to finish
        ("capture.py", "_build"): 3000,
    }
    record = trace.records[2999]
    assert record.frame.to_bytes() == frame.to_bytes()
    assert (record.timestamp, record.point) == (2.999, "upstream-out")
