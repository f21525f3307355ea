"""The endpoint's per-segment budget, counted rather than timed, and
the receive path's contract under arbitrary segment interleavings.

The budget is the path one in-order data segment takes through an
ESTABLISHED endpoint whose application echoes it — receive, deliver,
application send, data out, ACK out — up to ``Port.send`` (the hop
beyond is ``tests/test_hop_budget.py``'s).  docs/PERFORMANCE.md, "The
endpoint kernel", has the table.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.arp import ETHERTYPE_ARP, ArpMessage
from repro.net.host import Host
from repro.net.link import Link, Port
from repro.net.packet import (
    ACK,
    FIN,
    PSH,
    RST,
    SYN,
    EthernetFrame,
    IPv4Packet,
    TCPSegment,
)
from repro.net.tcp import MSS, TcpConnection, TcpState
from repro.sim.engine import Simulator
from tests.helpers import python_calls

PEER_IP = IPv4Address("10.0.0.1")
PEER_MAC = MacAddress(0x020000000001)
PEER_PORT = 40000
SERVICE_PORT = 7
MASK = 0xFFFFFFFF


class _Peer:
    """A hand-driven remote endpoint: injects exactly the segments a
    test builds and records what the host under test sends back."""

    def __init__(self, seed: int = 7) -> None:
        self.sim = Simulator(seed=seed)
        self.host = Host(self.sim, "server", ip=IPv4Address("10.0.0.2"))
        self.port = Port(self, "peer")
        self.sent: list = []
        Link(self.sim, self.port, self.host.port)
        # Teach the host our MAC so its replies need no ARP round trip.
        hello = ArpMessage.reply(PEER_MAC, PEER_IP, self.host.mac,
                                 self.host.ip)
        self.host.receive_frame(
            EthernetFrame(PEER_MAC, self.host.mac, hello.to_bytes(),
                          ethertype=ETHERTYPE_ARP), self.host.port)

    def receive_frame(self, frame, port) -> None:
        self.sent.append(frame.ip.tcp)

    def frame(self, seq: int, ack: int, flags: int,
              payload: bytes = b"") -> EthernetFrame:
        segment = TCPSegment(PEER_PORT, SERVICE_PORT, seq, ack, flags,
                             payload=payload)
        return EthernetFrame(PEER_MAC, self.host.mac,
                             IPv4Packet(PEER_IP, self.host.ip, segment))

    def inject(self, seq: int, ack: int, flags: int,
               payload: bytes = b"") -> list:
        """Deliver one segment; returns the segments it provoked."""
        before = len(self.sent)
        self.host.receive_frame(self.frame(seq, ack, flags, payload),
                                self.host.port)
        self.sim.run(until=self.sim.now + 0.01)
        return self.sent[before:]


def _established_echo(peer: _Peer, isn: int = 1000):
    accepted = []

    def on_accept(conn):
        accepted.append(conn)
        conn.on_data = lambda c, data: c.send(data)

    peer.host.tcp.listen(SERVICE_PORT, on_accept)
    (syn_ack,) = peer.inject(isn, 0, SYN)
    peer.inject(isn + 1, syn_ack.seq + 1, ACK)
    (conn,) = accepted
    assert conn.state is TcpState.ESTABLISHED
    return conn


def test_echoed_data_segment_is_eighteen_python_frames():
    peer = _Peer()
    conn = _established_echo(peer)
    frame = peer.frame(conn.rcv_nxt, conn.snd_nxt, ACK | PSH, b"x" * 512)
    calls = python_calls(
        lambda: peer.host.receive_frame(frame, peer.host.port))
    peer.sim.run(until=peer.sim.now + 0.01)

    echo, ack = peer.sent[-2:]
    assert (echo.payload, echo.flags) == (b"x" * 512, ACK | PSH)
    assert (ack.payload, ack.flags, ack.ack) == (b"", ACK, conn.rcv_nxt)
    assert conn.bytes_received == conn.bytes_sent == 512

    endpoint = {key: count for key, count in calls.items()
                if key[0] not in ("link.py", "engine.py")}
    # Demultiplexing and classification are data-only: no address
    # object is hashed or compared in Python, no flag property runs.
    assert not [key for key in endpoint if key[0] == "addresses.py"]
    assert not [key for key in endpoint
                if key[1] in ("syn", "fin", "rst", "has_ack", "seq_len",
                              "tcp", "ip")]
    # The same measurement before the endpoint kernel: 42 frames, 8 of
    # them IPv4Address/MacAddress methods and 6 flag properties.
    assert endpoint == {
        ("test_endpoint_budget.py", "<lambda>"): 2,   # driver, on_data
        ("host.py", "receive_frame"): 1,
        ("tcp.py", "packet_arrived"): 1,
        ("tcp.py", "segment_arrived"): 1,
        ("tcp.py", "_process_payload"): 1,
        ("tcp.py", "_deliver"): 1,
        ("tcp.py", "send"): 1,
        ("tcp.py", "_flush"): 1,
        # Echo out and ACK out, each: _emit -> TCPSegment() -> wrap ->
        # send_ip -> EthernetFrame().
        ("tcp.py", "_emit"): 2,
        ("packet.py", "__init__"): 4,
        ("packet.py", "wrap"): 2,
        ("host.py", "send_ip"): 2,
    }
    assert sum(endpoint.values()) - 1 == 18       # less the driver lambda


# ----------------------------------------------------------------------
# The receive path under arbitrary interleavings
# ----------------------------------------------------------------------
@st.composite
def _scripts(draw):
    data = draw(st.binary(min_size=1, max_size=3000))
    size = len(data)
    # Arbitrary slices of the stream, in arbitrary order: in-order,
    # duplicated, overlapping and reordered segments all arise.
    slices = draw(st.lists(
        st.tuples(st.integers(0, size - 1), st.integers(1, 1460)),
        max_size=24))
    return {
        "isn": draw(st.one_of(
            st.integers(0, MASK),
            st.integers(MASK - 4000, MASK))),       # wrap mid-stream
        "data": data,
        "slices": [(start, min(size, start + length))
                   for start, length in slices],
        "mss": draw(st.integers(1, 1460)),
        "syn_retransmits": draw(st.integers(0, 2)),
        "piggyback": draw(st.booleans()),
        "ending": draw(st.sampled_from(["fin", "fin+data", "rst"])),
    }


@settings(max_examples=150, deadline=None)
@given(_scripts())
def test_any_interleaving_delivers_the_stream_once(script):
    peer = _Peer()
    isn, data = script["isn"], script["data"]
    events, delivered = [], bytearray()

    def on_accept(conn):
        events.append("accept")
        conn.on_established = lambda c: events.append("established")
        conn.on_data = lambda c, chunk: delivered.extend(chunk)
        conn.on_reset = lambda c: events.append("reset")
        conn.on_closed = lambda c: events.append("closed")

        def remote_close(c):
            events.append("remote_close")
            c.close()

        conn.on_remote_close = remote_close

    def seq_at(offset: int) -> int:
        return (isn + 1 + offset) & MASK

    def expect_ack(replies) -> None:
        """One bare ACK, acknowledging exactly what was delivered."""
        (reply,) = replies
        assert (reply.flags, reply.payload) == (ACK, b"")
        assert reply.ack == conn.rcv_nxt == seq_at(len(delivered))
        assert reply.seq == conn.snd_nxt
        assert bytes(delivered) == data[:len(delivered)]

    stack = peer.host.tcp
    stack.listen(SERVICE_PORT, on_accept)

    # Handshake: SYN, retransmitted SYNs re-acked in SYN_RCVD, ACK.
    (syn_ack,) = peer.inject(isn, 0, SYN)
    (conn,) = stack.connections()
    assert conn.state is TcpState.SYN_RCVD
    for _ in range(script["syn_retransmits"]):
        (again,) = peer.inject(isn, 0, SYN)
        assert (again.flags, again.seq, again.ack) == (
            SYN | ACK, syn_ack.seq, seq_at(0))
        assert conn.state is TcpState.SYN_RCVD
    assert events == ["accept"]
    our_ack = (syn_ack.seq + 1) & MASK
    if script["piggyback"]:
        first = data[:script["mss"]]
        expect_ack(peer.inject(seq_at(0), our_ack, ACK | PSH, first))
        assert bytes(delivered) == first
    else:
        assert peer.inject(seq_at(0), our_ack, ACK) == []
    assert conn.state is TcpState.ESTABLISHED
    assert events == ["accept", "established"]

    # The shuffled slices, then the whole stream in order so that
    # every byte has certainly been sent.
    mss = script["mss"]
    in_order = [(start, min(len(data), start + mss))
                for start in range(0, len(data), mss)]
    fin_with_data = script["ending"] == "fin+data"
    for index, (start, end) in enumerate(script["slices"] + in_order):
        last = fin_with_data and index == len(script["slices"]
                                              + in_order) - 1
        replies = peer.inject(seq_at(start), our_ack,
                              ACK | PSH | (FIN if last else 0),
                              data[start:end])
        if last:
            break
        expect_ack(replies)
        assert conn.state is TcpState.ESTABLISHED
    if not fin_with_data:
        assert bytes(delivered) == data

    if script["ending"] == "rst":
        assert peer.inject(seq_at(len(data)), our_ack, RST) == []
        assert conn.state is TcpState.CLOSED
        assert events == ["accept", "established", "reset"]
        assert stack.connection_count() == 0
        return

    # FIN (alone or on the last data segment): the data ACK if any,
    # the FIN's ACK, then the application's close() sends our FIN.
    if not fin_with_data:
        replies = peer.inject(seq_at(len(data)), our_ack, FIN | ACK)
    assert bytes(delivered) == data
    *acks, fin = replies
    assert [reply.flags for reply in acks] == [ACK] * len(acks)
    assert acks[-1].ack == seq_at(len(data) + 1) == conn.rcv_nxt
    assert (fin.flags, fin.seq, fin.ack) == (
        FIN | ACK, our_ack, seq_at(len(data) + 1))
    assert conn.state is TcpState.LAST_ACK
    assert events == ["accept", "established", "remote_close"]
    assert peer.inject(seq_at(len(data) + 1), our_ack + 1, ACK) == []
    assert conn.state is TcpState.CLOSED
    assert events == ["accept", "established", "remote_close", "closed"]
    assert stack.connection_count() == 0


# ----------------------------------------------------------------------
# The send path against the bytearray buffer it replaced
# ----------------------------------------------------------------------
class _BytearrayBuffered(TcpConnection):
    """The send path as it was: every write extended one ``bytearray``
    and each segment was copied out of it.  Kept as the reference the
    queue of writes must be indistinguishable from on the wire."""

    def send(self, data) -> None:
        state = self.state
        if state is not TcpState.ESTABLISHED:
            if state is TcpState.CLOSED and self.opened_at is None:
                self._send_buffer.extend(data)
                return
            if state not in (TcpState.CLOSE_WAIT, TcpState.SYN_SENT,
                             TcpState.SYN_RCVD):
                raise RuntimeError(f"cannot send in state {state}")
        if self._fin_pending or self._fin_sent:
            raise RuntimeError("cannot send after close()")
        self._send_buffer.extend(data)
        if state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            self._flush()

    def _flush(self) -> None:
        buffer = self._send_buffer
        while buffer:
            chunk = bytes(buffer[:MSS])
            del buffer[:MSS]
            size = len(chunk)
            seq = self.snd_nxt
            self.bytes_sent += size
            if self._fin_pending and not buffer:
                self._fin_pending = False
                self._fin_sent = True
                self._emit(ACK | PSH | FIN, seq, self.rcv_nxt, chunk)
                self.snd_nxt = (seq + size + 1) & MASK
                self._after_fin_sent()
            else:
                self._emit(ACK | PSH, seq, self.rcv_nxt, chunk)
                self.snd_nxt = (seq + size) & MASK
        if self._fin_pending:
            self._fin_pending = False
            self._fin_sent = True
            self._emit(FIN | ACK, self.snd_nxt, self.rcv_nxt)
            self.snd_nxt = (self.snd_nxt + 1) & MASK
            self._after_fin_sent()


_WRITE_SIZES = st.one_of(
    st.integers(0, 4000),
    st.sampled_from((0, 1, MSS - 1, MSS, MSS + 1, 2 * MSS, 2 * MSS + 1)))
_WRITES = st.lists(st.tuples(
    st.sampled_from(("bytes", "bytearray", "memoryview", "ints")),
    _WRITE_SIZES), max_size=4)


@st.composite
def _send_scripts(draw):
    return {
        # In the accept callback, before the SYN is processed; in
        # SYN_RCVD; in ESTABLISHED; after the peer's FIN.
        "phases": [draw(_WRITES) for _ in range(4)],
        # close() while the FIN must wait for the handshake, with
        # data queued or not, or after either side's FIN.
        "close": draw(st.sampled_from(
            (None, "syn_rcvd", "established", "close_wait"))),
    }


def _run_send_script(script, reference: bool):
    """Drive one accepted connection through ``script``; returns what
    the peer saw, ``(seq, ack, flags, payload)`` per segment, the
    application's stream, and every error ``send`` raised."""
    peer, accepted, errors, stream = _Peer(), [], [], bytearray()
    same_object = []            # did a <= MSS bytes write go out as-is?

    def attempt(conn, data) -> None:
        try:
            conn.send(data)
        except (TypeError, ValueError, RuntimeError) as exc:
            errors.append((type(exc).__name__, str(exc)))

    def phase(conn, writes) -> None:
        attempt(conn, 5)
        attempt(conn, "text")
        for kind, size in writes:
            content = bytes((len(stream) + i) % 251 for i in range(size))
            stream.extend(content)
            data = {"bytes": content, "bytearray": bytearray(content),
                    "memoryview": memoryview(bytearray(content)),
                    "ints": list(content)}[kind]
            before = len(peer.sent)
            attempt(conn, data)
            if kind != "bytes":
                # The caller's buffer is its own again once send returns.
                data[:] = (b"\xee" if kind != "ints" else [0xEE]) * size
            peer.sim.run(until=peer.sim.now + 0.01)
            if (kind == "bytes" and 0 < size <= MSS
                    and conn.state in (TcpState.ESTABLISHED,
                                       TcpState.CLOSE_WAIT)):
                (segment,) = peer.sent[before:]
                same_object.append(segment.payload is data)

    def on_accept(conn):
        if reference:
            conn.__class__ = _BytearrayBuffered
            conn._send_buffer = bytearray()
        accepted.append(conn)
        phase(conn, script["phases"][0])

    peer.host.tcp.listen(SERVICE_PORT, on_accept)
    isn = 5000
    (syn_ack,) = peer.inject(isn, 0, SYN)[:1]
    (conn,) = accepted

    def close(when: str) -> None:
        if script["close"] == when:
            conn.close()
            attempt(conn, b"after close")

    phase(conn, script["phases"][1])
    close("syn_rcvd")
    peer.inject(isn + 1, (syn_ack.seq + 1) & MASK, ACK)
    phase(conn, script["phases"][2])
    close("established")
    peer.inject(isn + 1, conn.snd_nxt, FIN | ACK)
    phase(conn, script["phases"][3])
    close("close_wait")
    peer.sim.run(until=peer.sim.now + 0.01)
    wire = [(s.seq, s.ack, s.flags, bytes(s.payload)) for s in peer.sent]
    return wire, bytes(stream), errors, same_object


@settings(max_examples=150, deadline=None)
@given(_send_scripts())
def test_send_queue_emits_what_the_bytearray_buffer_did(script):
    wire, stream, errors, same_object = _run_send_script(script, False)
    assert (wire, stream, errors) == _run_send_script(script, True)[:3]
    # The payloads are the application's stream, whatever it did to
    # its own buffers after each send.
    sent = b"".join(payload for _, _, flags, payload in wire
                    if flags & PSH)
    assert sent == stream[:len(sent)]
    assert all(same_object)
    # The errors are the ones the bytearray buffer raised: what it
    # could not extend itself with, in every state, and what a closed
    # connection refuses.
    assert errors.count(("TypeError", "can't extend bytearray with int")) \
        >= 2
    if script["close"] == "syn_rcvd":
        assert ("RuntimeError", "cannot send after close()") in errors
    elif script["close"]:
        assert any(kind == "RuntimeError" for kind, _ in errors)
