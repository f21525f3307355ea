"""The link hop: one path for every frame.

``Port.send`` posts the peer device's ``receive_frame`` straight onto
the simulator's queue as a plain list, on a windowed link too (its
arrival is rounded up to the window boundary); ``Port.deliver`` and
``Link.transmit`` are retired names (docs/PERFORMANCE.md, "The per-hop
kernel").  The ``coalescing`` shape sets the ``Port.coalesce``
attribute that once sent frames down a second, batching path; it now
changes nothing, and the shape is held to the plain hop's behaviour.
"""

from __future__ import annotations

import pytest

from repro.net.addresses import MacAddress
from repro.net.link import Link, Port
from repro.net.packet import EthernetFrame
from repro.sim.engine import Simulator


class _Device:
    """Records ``(virtual time, frame, port)`` per delivery."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.port = Port(self, "dev")
        self.seen = []

    def receive_frame(self, frame, port) -> None:
        self.seen.append((self.sim.now, frame, port))


def _frame(tag: int) -> EthernetFrame:
    return EthernetFrame(MacAddress(0x02 << 40 | tag),
                         MacAddress.broadcast(), b"payload")


def _pair(sim, **link_kwargs):
    a, b = _Device(sim), _Device(sim)
    link = Link(sim, a.port, b.port, **link_kwargs)
    return a, b, link


# ----------------------------------------------------------------------
# Counters are exact on every link shape
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", ["plain", "windowed", "coalescing"])
def test_frames_sent_and_carried_are_exact_on_every_path(shape):
    sim = Simulator()
    a, b, link = _pair(
        sim, latency=0.125,
        batch_window=0.25 if shape == "windowed" else None)
    if shape == "coalescing":
        b.port.coalesce = sim
    for index in range(7):
        sim.schedule_at(float(index), a.port.send, _frame(index))
    for index in range(4):
        sim.schedule_at(index + 0.5, b.port.send, _frame(100 + index))
    sim.run()
    assert (a.port.frames_sent, b.port.frames_sent) == (7, 4)
    assert link.frames_carried == 11
    assert (len(b.seen), len(a.seen)) == (7, 4)
    # Each frame arrives on the receiving device's own port.
    assert {port for _, _, port in b.seen} == {b.port}
    assert {port for _, _, port in a.seen} == {a.port}
    # An unplugged port counts nothing.
    link.disconnect()
    a.port.send(_frame(0))
    assert (a.port.frames_sent, link.frames_carried) == (7, 11)
    assert sim.pending == 0


def test_default_hop_arrives_when_the_five_frame_hop_did():
    """Same sends over a plain link and over one whose peer port
    carries the retired ``coalesce`` attribute: the arrival times, order
    and event count the five-frame ``transmit``/``deliver`` hop gave."""
    arrivals = []
    for coalesce in (False, True):
        sim = Simulator()
        a, b, _link = _pair(sim, latency=0.125)
        if coalesce:
            b.port.coalesce = sim
        for index in range(5):
            sim.schedule_at(index * 0.0625, a.port.send, _frame(index))
        sim.run()
        arrivals.append(([(when, frame.src) for when, frame, _ in b.seen],
                         sim.events_processed))
    assert arrivals[0] == arrivals[1] == (
        [(0.125 + index * 0.0625, _frame(index).src) for index in range(5)],
        10)


# ----------------------------------------------------------------------
# What the hop must keep doing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("latency", [float("nan"), -0.001])
def test_latency_made_invalid_after_construction_raises_at_send(latency):
    sim = Simulator()
    a, b, link = _pair(sim, latency=0.5)
    a.port.send(_frame(1))
    link.latency = latency
    with pytest.raises(ValueError):
        a.port.send(_frame(2))
    # The heap was not touched: the frame already in flight arrives.
    assert sim.pending == 1
    assert sim.run() == 0.5
    assert len(b.seen) == 1


@pytest.mark.parametrize("shape", ["plain", "windowed", "coalescing"])
def test_frames_in_flight_at_disconnect_are_still_delivered(shape):
    sim = Simulator()
    a, b, link = _pair(
        sim, latency=0.5,
        batch_window=0.25 if shape == "windowed" else None)
    if shape == "coalescing":
        b.port.coalesce = sim
    a.port.send(_frame(1))
    b.port.send(_frame(2))
    link.disconnect()
    assert not a.port.connected and not b.port.connected
    a.port.send(_frame(3))      # unplugged: a no-op
    sim.run()
    assert [frame.src for _, frame, _ in b.seen] == [_frame(1).src]
    assert [frame.src for _, frame, _ in a.seen] == [_frame(2).src]


def test_receive_frame_replaced_after_the_link_is_built_is_honoured():
    sim = Simulator()
    a, b, _link = _pair(sim, latency=0.5)
    spied = []
    b.receive_frame = lambda frame, port: spied.append((frame, port))
    frame = _frame(1)
    a.port.send(frame)
    sim.run()
    assert spied == [(frame, b.port)] and b.seen == []
