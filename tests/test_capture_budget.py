"""The trace-memory budget, counted rather than timed.

GQ records every frame for the life of a deployment (§5.6), so what a
captured frame costs in memory bounds how long a farm can run.  These
tests pin that cost (docs/PERFORMANCE.md, "Trace memory"): a TCP
capture is one packed header and one payload reference — at most 80
bytes of store, one Python frame, no object of its own — whether or
not the trace is bounded.
"""

from __future__ import annotations

import sys

import pytest

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.capture import PacketTrace
from repro.net.packet import ACK, EthernetFrame, IPv4Packet, TCPSegment
from tests.helpers import python_calls

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


@pytest.mark.parametrize("bound", [None, 64, 5000])
def test_a_bounded_trace_holds_a_bounded_store(bound):
    trace = PacketTrace(max_records=bound)
    frame = tcp_frame()
    peak = 0
    for index in range(FRAMES):
        trace.capture(index * 0.001, frame, point="inmate")
        peak = max(peak, len(trace._payloads))
    if bound is None:
        assert peak == FRAMES
        return
    # Live rows plus at most one bound's worth of dead prefix ...
    assert peak <= 2 * bound + 1
    # ... reclaimed in chunks: amortised O(1) per capture.
    assert trace.compactions <= FRAMES // bound
    assert store_bytes(trace) <= (2 * bound + 1) * BYTES_PER_FRAME + 256


@pytest.mark.parametrize("bound", [None, 64])
def test_capture_is_one_python_frame(bound):
    trace = PacketTrace(max_records=bound)
    frame = tcp_frame()

    def run():
        for index in range(1000):
            trace.capture(index * 0.001, frame, point="inmate")

    calls = python_calls(run)
    # The first capture registers its point; rotation and compaction
    # are inline.
    assert calls == {
        ("test_capture_budget.py", "run"): 1,
        ("capture.py", "capture"): 1000,
        ("capture.py", "_point_code"): 1,
    }


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
