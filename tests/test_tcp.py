"""TCP state machine tests: handshake, data, teardown, resets."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.net.tcp import TcpState, seq_add, seq_lt, seq_sub
from tests.helpers import lan


def echo_server(host, port=7):
    """Install an echo listener; returns the list of accepted conns."""
    accepted = []

    def on_accept(conn):
        accepted.append(conn)
        conn.on_data = lambda c, data: c.send(data)

    host.tcp.listen(port, on_accept)
    return accepted


class TestHandshake:
    def test_three_way_handshake_establishes_both_sides(self):
        sim, _switch, (a, b) = lan()
        accepted = echo_server(b)
        conn = a.tcp.connect(b.ip, 7)
        sim.run(until=1.0)
        assert conn.state == TcpState.ESTABLISHED
        assert len(accepted) == 1
        assert accepted[0].state == TcpState.ESTABLISHED

    def test_connect_to_closed_port_fails_with_rst(self):
        """A refused connect is a reset: ``on_reset`` runs exactly once,
        with the handshake never completed, and the stack forgets the
        connection."""
        sim, _switch, (a, b) = lan()
        conn = a.tcp.connect(b.ip, 999)
        resets, closes = [], []
        conn.on_reset = resets.append
        conn.on_closed = closes.append
        sim.run(until=1.0)
        assert conn.state == TcpState.CLOSED
        assert resets == [conn] and closes == []
        assert conn.established_at is None
        assert a.tcp.connection_count() == 0
        assert not hasattr(conn, "on_fail")

    def test_isns_are_random_but_deterministic_per_seed(self):
        sim1, _s1, (a1, b1) = lan(seed=3)
        sim2, _s2, (a2, b2) = lan(seed=3)
        echo_server(b1)
        echo_server(b2)
        c1 = a1.tcp.connect(b1.ip, 7)
        c2 = a2.tcp.connect(b2.ip, 7)
        sim1.run(until=1.0)
        sim2.run(until=1.0)
        assert c1.iss == c2.iss

    def test_established_callback_fires_once(self):
        sim, _switch, (a, b) = lan()
        echo_server(b)
        conn = a.tcp.connect(b.ip, 7)
        established = []
        conn.on_established = established.append
        sim.run(until=1.0)
        assert established == [conn]


class TestDataTransfer:
    def test_echo_round_trip(self):
        sim, _switch, (a, b) = lan()
        echo_server(b)
        conn = a.tcp.connect(b.ip, 7)
        received = []
        conn.on_data = lambda c, d: received.append(d)
        conn.on_established = lambda c: c.send(b"hello world")
        sim.run(until=1.0)
        assert b"".join(received) == b"hello world"

    def test_large_transfer_is_segmented_and_reassembled(self):
        sim, _switch, (a, b) = lan()
        payload = bytes(range(256)) * 64  # 16 KiB, > 10 segments
        received = []

        def on_accept(conn):
            conn.on_data = lambda c, d: received.append(d)

        b.tcp.listen(9, on_accept)
        conn = a.tcp.connect(b.ip, 9)
        conn.on_established = lambda c: c.send(payload)
        sim.run(until=2.0)
        assert b"".join(received) == payload

    def test_send_before_established_is_queued(self):
        sim, _switch, (a, b) = lan()
        received = []

        def on_accept(conn):
            conn.on_data = lambda c, d: received.append(d)

        b.tcp.listen(9, on_accept)
        conn = a.tcp.connect(b.ip, 9)
        conn.send(b"early bytes")
        sim.run(until=1.0)
        assert b"".join(received) == b"early bytes"

    def test_bidirectional_simultaneous_data(self):
        sim, _switch, (a, b) = lan()
        got_a, got_b = [], []

        def on_accept(conn):
            conn.on_data = lambda c, d: got_b.append(d)
            conn.on_established = lambda c: c.send(b"from-b")
            conn.send(b"b-early")

        b.tcp.listen(9, on_accept)
        conn = a.tcp.connect(b.ip, 9)
        conn.on_data = lambda c, d: got_a.append(d)
        conn.on_established = lambda c: c.send(b"from-a")
        sim.run(until=1.0)
        assert b"".join(got_b) == b"from-a"
        assert b"".join(got_a) == b"b-earlyfrom-b"


class TestTeardown:
    def test_orderly_close_reaches_closed_on_both_sides(self):
        sim, _switch, (a, b) = lan()
        remote_closed = []
        server_conns = []

        def on_accept(c):
            server_conns.append(c)

            def server_remote_close(conn):
                remote_closed.append(conn)
                conn.close()

            c.on_remote_close = server_remote_close

        b.tcp.listen(7, on_accept)
        conn = a.tcp.connect(b.ip, 7)
        conn.on_established = lambda c: c.close()
        sim.run(until=5.0)
        assert remote_closed
        assert server_conns[0].fully_closed
        assert conn.fully_closed

    def test_data_then_close_delivers_all_bytes(self):
        sim, _switch, (a, b) = lan()
        received, closes = [], []

        def on_accept(conn):
            conn.on_data = lambda c, d: received.append(d)
            conn.on_remote_close = closes.append

        b.tcp.listen(9, on_accept)
        conn = a.tcp.connect(b.ip, 9)

        def run(c):
            c.send(b"final payload")
            c.close()

        conn.on_established = run
        sim.run(until=2.0)
        assert b"".join(received) == b"final payload"
        assert len(closes) == 1

    def test_remote_close_fires_once_whoever_closed_first(self):
        """The end of the peer's stream is one event in every state: the
        side that closed first hears the peer's FIN too, once, before
        its own ``on_closed``."""
        sim, _switch, (a, b) = lan()
        events = []

        def on_accept(conn):
            def remote_close(c):
                events.append(("server", c.state.value))
                c.close()

            conn.on_remote_close = remote_close
            conn.on_closed = lambda c: events.append(("server closed",))

        b.tcp.listen(7, on_accept)
        conn = a.tcp.connect(b.ip, 7)
        conn.on_established = lambda c: c.close()
        conn.on_remote_close = lambda c: events.append(
            ("client", c.state.value))
        conn.on_closed = lambda c: events.append(
            ("client closed", c.state.value))
        sim.run(until=5.0)
        assert events == [("server", "close-wait"), ("client", "fin-wait-2"),
                          ("client closed", "time-wait"), ("server closed",)]

    def test_close_before_the_syn_waits_for_the_handshake(self):
        """A write and a close made before the deferred SYN goes out
        are both held: the peer reads the bytes, then the FIN."""
        sim, _switch, (a, b) = lan()
        heard = []

        def on_accept(conn):
            conn.on_data = lambda c, d: heard.append(d)
            conn.on_remote_close = lambda c: (heard.append("FIN"), c.close())

        b.tcp.listen(9, on_accept)
        conn = a.tcp.connect(b.ip, 9)
        conn.send(b"early")
        conn.close()
        sim.run(until=2.0)
        assert heard == [b"early", "FIN"]
        assert conn.fully_closed

    def test_abort_sends_rst(self):
        sim, _switch, (a, b) = lan()
        server_conns = echo_server(b)
        resets = []
        conn = a.tcp.connect(b.ip, 7)
        conn.on_established = lambda c: None
        sim.run(until=0.5)
        server_conns[0].on_reset = resets.append
        conn.abort()
        sim.run(until=1.0)
        assert resets == [server_conns[0]]
        assert conn.state == TcpState.CLOSED

    def test_abort_before_the_syn_sends_nothing(self):
        """A connection aborted in the tick between ``connect`` and its
        deferred SYN never opens: no SYN goes out, the peer accepts
        nothing, and the connection stays closed and forgotten."""
        sim, _switch, (a, b) = lan()
        server_conns = echo_server(b)
        conn = a.tcp.connect(b.ip, 7)
        conn.abort()
        sim.run(until=1.0)
        assert conn.state == TcpState.CLOSED
        assert conn.opened_at is None
        assert server_conns == []
        assert a.tcp.connection_count() == 0

    def test_send_after_close_raises(self):
        sim, _switch, (a, b) = lan()
        echo_server(b)
        conn = a.tcp.connect(b.ip, 7)
        sim.run(until=0.5)
        conn.close()
        with pytest.raises(RuntimeError):
            conn.send(b"too late")


class TestSequenceArithmetic:
    def test_wraparound_add(self):
        assert seq_add(0xFFFFFFFF, 1) == 0
        assert seq_add(0xFFFFFFF0, 0x20) == 0x10

    def test_wraparound_sub(self):
        assert seq_sub(0, 1) == 0xFFFFFFFF
        assert seq_sub(0x10, 0xFFFFFFF0) == 0x20

    def test_modular_less_than(self):
        assert seq_lt(0xFFFFFFF0, 0x10)
        assert not seq_lt(0x10, 0xFFFFFFF0)
        assert not seq_lt(5, 5)


def scan_allocate(stack) -> int:
    """The port ``allocate_port`` would hand out next, found the way it
    used to be: one scan of every connection per candidate port."""
    candidate = stack._next_ephemeral
    for _ in range(64512):
        port = candidate
        candidate += 1
        if candidate > 65535:
            candidate = stack.EPHEMERAL_BASE
        if port not in stack._listeners and not any(
                key[1] == port for key in stack._connections):
            return port
    raise RuntimeError("ephemeral port space exhausted")


class TestPortAllocation:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_open_close_script_allocates_what_the_scan_did(self, seed):
        sim, _switch, (a, b) = lan(seed=seed)
        echo_server(b)
        a.tcp.listen(9, lambda conn: None)
        rng = random.Random(seed)
        stack = a.tcp
        stack._next_ephemeral = 65500    # wrap past 65535 mid-script
        conns = []
        for _ in range(300):
            roll = rng.random()
            if roll < 0.40:
                # Ephemeral connect; port 999 is closed on b, so those
                # are refused and forgotten by the RST.
                expected = scan_allocate(stack)
                conn = stack.connect(b.ip, rng.choice((7, 999)))
                assert conn.local_port == expected
                conns.append(conn)
            elif roll < 0.55:
                # Pinned local port just ahead of the allocator (twice
                # to the same remote overwrites the first connection;
                # two remote ports share one local port).
                ahead = stack._next_ephemeral + rng.randrange(4)
                if ahead <= 65535:
                    conns.append(stack.connect(b.ip, rng.choice((7, 8)),
                                               local_port=ahead))
            elif roll < 0.60:
                ahead = stack._next_ephemeral + rng.randrange(4)
                if ahead <= 65535 and ahead not in stack._listeners:
                    stack.listen(ahead, lambda conn: None)
            elif roll < 0.70:
                # Passive accepts occupy a's port 9 under new tuples.
                b.tcp.connect(a.ip, 9)
            elif roll < 0.85 and conns:
                conns.pop(rng.randrange(len(conns))).abort()
            elif conns:
                conns.pop(rng.randrange(len(conns))).close()
            sim.run(until=sim.now + rng.choice((0.0, 0.001, 0.5)))
            in_use = Counter(key[1] for key in stack._connections)
            assert stack._port_use == in_use
        assert stack._next_ephemeral < 65500    # it did wrap
