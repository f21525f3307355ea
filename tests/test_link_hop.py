"""The link hop's two paths, held to one behaviour.

By default ``Port.send`` posts the peer device's ``receive_frame``
straight onto the simulator's queue as a plain list; a link with a
``batch_window`` or a coalescing peer port goes through
``Link.transmit`` / ``Port.deliver`` and an ``Event``
(docs/PERFORMANCE.md, "The per-hop kernel").  Both kinds of entry share
one heap, so whatever peeks at it reads entries by index.
"""

from __future__ import annotations

import pytest

from repro.net.addresses import MacAddress
from repro.net.link import Link, Port
from repro.net.packet import EthernetFrame
from repro.sim.engine import Event, Simulator


class _Device:
    """Records ``(virtual time, frame, port)`` per delivery and the
    size of every batch."""

    def __init__(self, sim: Simulator, batching: bool = False) -> None:
        self.sim = sim
        self.port = Port(self, "dev")
        self.seen = []
        self.batches = []
        if batching:
            self.receive_frame_batch = self._receive_batch

    def receive_frame(self, frame, port) -> None:
        self.seen.append((self.sim.now, frame, port))
        self.batches.append(1)

    def _receive_batch(self, frames, port) -> None:
        self.seen.extend((self.sim.now, frame, port) for frame in frames)
        self.batches.append(len(frames))


def _frame(tag: int) -> EthernetFrame:
    return EthernetFrame(MacAddress(0x02 << 40 | tag),
                         MacAddress.broadcast(), b"payload")


def _pair(sim, **link_kwargs):
    a, b = _Device(sim), _Device(sim)
    link = Link(sim, a.port, b.port, **link_kwargs)
    return a, b, link


# ----------------------------------------------------------------------
# A posted entry at the head of a coalescing port's queue
# ----------------------------------------------------------------------
@pytest.mark.parametrize("window", [None, 0.25])
@pytest.mark.parametrize("plain_latency", [0.5, 2.0])
def test_coalescing_port_peeks_past_a_posted_head(window, plain_latency):
    """Two links: one into a coalescing port (an ``Event`` for
    ``Port.deliver``), one plain (a posted list).  When a coalescing
    delivery fires, the head of the queue it peeks at is the plain
    link's posted frame — due the same instant, or due later."""
    sim = Simulator()
    tx, rx = _Device(sim), _Device(sim, batching=True)
    Link(sim, tx.port, rx.port, latency=0.5, batch_window=window)
    rx.port.coalesce = sim
    a, b, _link = _pair(sim, latency=plain_latency)

    first, second, other, third = (_frame(tag) for tag in range(4))
    tx.port.send(first)
    a.port.send(other)
    tx.port.send(second)
    assert sorted(type(entry) is Event for entry in sim._queue) == [
        False, True, True]
    # Delivered at 1.5, with the later-due posted frame (if it is still
    # queued) the only other entry.
    sim.schedule_at(1.0, tx.port.send, third)
    sim.run()

    # Due the same instant, the posted frame sits between the two
    # coalescing deliveries in (time, seq) order and stops the drain,
    # exactly as an interleaved Event did.
    coincident = plain_latency == 0.5
    assert rx.batches == ([1, 1, 1] if coincident else [2, 1])
    assert [(when, frame) for when, frame, _ in rx.seen] == [
        (0.5, first), (0.5, second), (1.5, third)]
    assert b.seen == [(plain_latency, other, b.port)]
    assert sim.events_processed == 5 and sim.pending == 0


# ----------------------------------------------------------------------
# Counters are exact on both paths
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
    """Same sends over a plain link and over one whose peer coalesces
    (the ``transmit``/``deliver`` path): same arrival times, same
    order, same event count."""
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
    assert arrivals[0] == arrivals[1]


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
