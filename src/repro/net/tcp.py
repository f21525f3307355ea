"""TCP endpoint state machine.

A deliberately honest TCP: real 32-bit sequence numbers over a byte
stream, a proper three-way handshake, FIN/RST teardown, and an
in-order reassembly buffer.  What it omits — retransmission,
congestion control, window management — the simulated links make
unnecessary (they are reliable and in-order), and none of it matters
to containment semantics.

The realism that *does* matter is the sequence space: GQ's gateway
injects shim messages into live connections by synthesizing segments
and offsetting every subsequent sequence/acknowledgement number
(paper Figure 5).  Endpoints here will genuinely desynchronize and
stall if the gateway's bumping arithmetic is wrong, which is exactly
the property the tests lean on.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.net.addresses import IPv4Address
from repro.net.packet import (
    ACK,
    FIN,
    IPv4Packet,
    PROTO_TCP,
    PSH,
    RST,
    SYN,
    TCPSegment,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.host import Host

MSS = 1460

SEQ_MOD = 1 << 32

_PSH_ACK = PSH | ACK  # every data segment
_SYN_ACK = SYN | ACK


def seq_add(a: int, b: int) -> int:
    """Modular 32-bit sequence addition."""
    return (a + b) % SEQ_MOD


def seq_sub(a: int, b: int) -> int:
    """Modular 32-bit sequence subtraction."""
    return (a - b) % SEQ_MOD


def seq_shift_many(values, delta: int) -> List[int]:
    """Shift a column of sequence numbers by ``delta`` mod 2^32.

    The batched datapath's vectorized form of :func:`seq_add`: one
    residue reduction for the whole column, then a single-comprehension
    mask per element (struct-of-arrays translation of a flow entry's
    seq/ack delta over a run of packets).
    """
    shift = delta % SEQ_MOD
    if not shift:
        return list(values)
    return [(value + shift) & 0xFFFFFFFF for value in values]


def seq_lt(a: int, b: int) -> bool:
    """True if a < b in modular sequence space."""
    return 0 < seq_sub(b, a) < (SEQ_MOD // 2)

def seq_le(a: int, b: int) -> bool:
    """True if a <= b in modular sequence space."""
    return a == b or seq_lt(a, b)


class TcpState(enum.Enum):
    """The RFC 793 connection states this stack implements."""

    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_WAIT_1 = "fin-wait-1"
    FIN_WAIT_2 = "fin-wait-2"
    CLOSE_WAIT = "close-wait"
    LAST_ACK = "last-ack"
    CLOSING = "closing"
    TIME_WAIT = "time-wait"


# Members are singletons, so the per-segment path compares states by
# identity against these aliases (an enum class attribute lookup costs
# four times a global).
_CLOSED = TcpState.CLOSED
_SYN_SENT = TcpState.SYN_SENT
_SYN_RCVD = TcpState.SYN_RCVD
_ESTABLISHED = TcpState.ESTABLISHED
_FIN_WAIT_1 = TcpState.FIN_WAIT_1
_FIN_WAIT_2 = TcpState.FIN_WAIT_2
_CLOSE_WAIT = TcpState.CLOSE_WAIT
_LAST_ACK = TcpState.LAST_ACK
_CLOSING = TcpState.CLOSING

#: Demultiplexing key: (local ip, local port, remote ip, remote port)
#: with the addresses as plain ints, so a probe hashes in C.
ConnectionKey = Tuple[int, int, int, int]


def _owned(data) -> bytes:
    """An immutable copy of a write that is not exact ``bytes``.

    ``bytearray.extend`` decides what a write may be, and the error a
    bad one raises: ``send(5)`` is a ``TypeError``, not five zeros.
    """
    if type(data) is bytearray:
        return bytes(data)
    owned = bytearray()
    owned.extend(data)
    return bytes(owned)


class TcpConnection:
    """One endpoint of a TCP connection.

    Applications interact through :meth:`send`, :meth:`close`,
    :meth:`abort` and the callback slots ``on_established``,
    ``on_data``, ``on_remote_close``, ``on_closed``, ``on_reset`` and
    ``on_fail``.  Callbacks receive the connection as sole argument
    except ``on_data``, which receives ``(conn, data)``.
    """

    def __init__(
        self,
        host: "Host",
        local_ip: IPv4Address,
        local_port: int,
        remote_ip: IPv4Address,
        remote_port: int,
    ) -> None:
        self.host = host
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port

        self.state = TcpState.CLOSED
        self.iss = 0           # initial send sequence
        self.snd_nxt = 0       # next sequence to send
        self.rcv_nxt = 0       # next sequence expected
        self.irs = 0           # initial receive sequence

        # The queued application writes, each an immutable ``bytes``.
        self._send_buffer: List[bytes] = []
        self._fin_pending = False
        self._fin_sent = False
        self._reassembly: Dict[int, bytes] = {}

        self.bytes_sent = 0
        self.bytes_received = 0
        self.opened_at: Optional[float] = None
        self.established_at: Optional[float] = None
        self.closed_at: Optional[float] = None

        # Application callbacks.
        self.on_established: Optional[Callable[["TcpConnection"], None]] = None
        self.on_data: Optional[Callable[["TcpConnection", bytes], None]] = None
        self.on_remote_close: Optional[Callable[["TcpConnection"], None]] = None
        self.on_closed: Optional[Callable[["TcpConnection"], None]] = None
        self.on_reset: Optional[Callable[["TcpConnection"], None]] = None
        self.on_fail: Optional[Callable[["TcpConnection"], None]] = None

        # Opaque slot for applications to hang per-connection state on.
        self.app: object = None

    # ------------------------------------------------------------------
    @property
    def key(self) -> ConnectionKey:
        return (self.local_ip.value, self.local_port,
                self.remote_ip.value, self.remote_port)

    @property
    def is_open(self) -> bool:
        return self.state in (
            TcpState.ESTABLISHED,
            TcpState.CLOSE_WAIT,
        )

    @property
    def fully_closed(self) -> bool:
        return self.state in (TcpState.CLOSED, TcpState.TIME_WAIT)

    # ------------------------------------------------------------------
    # Application API
    # ------------------------------------------------------------------
    def send(self, data: bytes) -> None:
        """Queue one application write for transmission.

        A ``bytes`` write is kept by reference: it is the payload of the
        segment it becomes, in every trace and at the peer's
        ``on_data``, whenever it fits one MSS.  Any other input is
        copied once, here, so the caller may reuse it after ``send``
        returns.
        """
        state = self.state
        if (state is not _ESTABLISHED and state is not _CLOSE_WAIT
                and state is not _SYN_SENT and state is not _SYN_RCVD
                # Not yet opened (SYN deferred a tick, or a server
                # accept callback running before the SYN is processed):
                # the write waits for establishment.
                and (state is not _CLOSED or self.opened_at is not None)):
            raise RuntimeError(f"cannot send in state {state}")
        if self._fin_pending or self._fin_sent:
            raise RuntimeError("cannot send after close()")
        if type(data) is not bytes:
            data = _owned(data)
        if data:
            self._send_buffer.append(data)
        if state is _ESTABLISHED or state is _CLOSE_WAIT:
            self._flush()

    def close(self) -> None:
        """Half-close: flush pending data then send FIN."""
        if self.state in (TcpState.CLOSED, TcpState.TIME_WAIT):
            return
        if self._fin_pending or self._fin_sent:
            return
        self._fin_pending = True
        if self.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            self._flush()

    def abort(self) -> None:
        """Send RST and drop to CLOSED immediately."""
        if self.state not in (TcpState.CLOSED, TcpState.LISTEN):
            self._emit(flags=RST | ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
        self._enter_closed(notify_reset=False)

    # ------------------------------------------------------------------
    # Stack-internal API
    # ------------------------------------------------------------------
    def open_active(self) -> None:
        """Begin the three-way handshake (client side)."""
        self.iss = self.host.tcp.pick_isn()
        self.snd_nxt = seq_add(self.iss, 1)
        self.state = TcpState.SYN_SENT
        self.opened_at = self.host.sim.now
        self._emit(flags=SYN, seq=self.iss, ack=0)

    def segment_arrived(self, segment: TCPSegment) -> None:
        """The stack demultiplexed a segment to this connection."""
        state = self.state
        if state is _SYN_SENT:
            self._handle_syn_sent(segment)
            return
        if state is _CLOSED:
            return

        flags = segment.flags
        if flags & RST:
            self._enter_closed(notify_reset=True)
            return

        if state is _SYN_RCVD:
            if flags & SYN:
                # Retransmitted SYN from peer: re-ack.
                self._emit(_SYN_ACK, self.iss, self.rcv_nxt)
                return
            if flags & ACK and segment.ack == self.snd_nxt:
                self._enter_established()
            # fall through to process any piggybacked payload

        if segment.payload:
            self._process_payload(segment)
        # Callbacks above may have moved the state; only the closing
        # states care what a segment acknowledges.
        if flags & ACK and self.state is not _ESTABLISHED:
            self._process_ack_side_effects(segment)
        if flags & FIN:
            self._handle_fin(segment)

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------
    def _handle_syn_sent(self, segment: TCPSegment) -> None:
        flags = segment.flags
        if flags & RST:
            self.state = TcpState.CLOSED
            if self.on_fail:
                self.on_fail(self)
            self._release()
            return
        if flags & SYN and flags & ACK and segment.ack == self.snd_nxt:
            self.irs = segment.seq
            self.rcv_nxt = seq_add(segment.seq, 1)
            self._emit(flags=ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
            self._enter_established()
            if segment.payload:
                self._process_payload(segment)

    def handle_passive_syn(self, segment: TCPSegment) -> None:
        """Server side: respond to an incoming SYN."""
        self.irs = segment.seq
        self.rcv_nxt = seq_add(segment.seq, 1)
        self.iss = self.host.tcp.pick_isn()
        self.snd_nxt = seq_add(self.iss, 1)
        self.state = TcpState.SYN_RCVD
        self.opened_at = self.host.sim.now
        self._emit(flags=SYN | ACK, seq=self.iss, ack=self.rcv_nxt)

    def _enter_established(self) -> None:
        self.state = TcpState.ESTABLISHED
        self.established_at = self.host.sim.now
        if self.on_established:
            self.on_established(self)
        self._flush()

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _process_payload(self, segment: TCPSegment) -> None:
        payload = segment.payload
        seg_seq = segment.seq
        rcv_nxt = self.rcv_nxt
        if seg_seq != rcv_nxt:
            if not seq_lt(seg_seq, rcv_nxt):
                # Out of order: buffer for later.
                self._reassembly[seg_seq] = payload
                self._emit(ACK, self.snd_nxt, rcv_nxt)
                return
            # Trim the already-received prefix.
            overlap = seq_sub(rcv_nxt, seg_seq)
            if overlap >= len(payload):
                self._emit(ACK, self.snd_nxt, rcv_nxt)
                return
            payload = payload[overlap:]
        self._deliver(payload)
        # Drain any contiguous buffered segments.
        reassembly = self._reassembly
        while reassembly and self.rcv_nxt in reassembly:
            self._deliver(reassembly.pop(self.rcv_nxt))
        self._emit(ACK, self.snd_nxt, self.rcv_nxt)

    def _deliver(self, payload: bytes) -> None:
        size = len(payload)
        self.rcv_nxt = (self.rcv_nxt + size) & 0xFFFFFFFF
        self.bytes_received += size
        if self.on_data:
            self.on_data(self, payload)

    def _process_ack_side_effects(self, segment: TCPSegment) -> None:
        if segment.ack != self.snd_nxt:
            return
        state = self.state
        if state is _FIN_WAIT_1:
            self.state = TcpState.FIN_WAIT_2
        elif state is _CLOSING:
            self._enter_time_wait()
        elif state is _LAST_ACK:
            self._enter_closed(notify_reset=False)

    def _handle_fin(self, segment: TCPSegment) -> None:
        fin_seq = seq_add(segment.seq, len(segment.payload))
        if fin_seq != self.rcv_nxt:
            return  # FIN for data we have not seen; ignore (no retransmit model)
        self.rcv_nxt = seq_add(self.rcv_nxt, 1)
        self._emit(ACK, self.snd_nxt, self.rcv_nxt)
        state = self.state
        if state is _ESTABLISHED or state is _SYN_RCVD:
            self.state = TcpState.CLOSE_WAIT
            if self.on_remote_close:
                self.on_remote_close(self)
        elif state is _FIN_WAIT_1:
            self.state = TcpState.CLOSING
        elif state is _FIN_WAIT_2:
            self._enter_time_wait()

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        queue = self._send_buffer
        # The stream is cut at MSS boundaries whatever the writes were;
        # one queued write needs no join, and a whole-range slice of
        # exact ``bytes`` is the object itself.
        data = queue[0] if len(queue) == 1 else b"".join(queue)
        queue.clear()
        total = len(data)
        for start in range(0, total, MSS):
            chunk = data[start:start + MSS]
            size = len(chunk)
            seq = self.snd_nxt
            self.bytes_sent += size
            if self._fin_pending and start + size == total:
                self._fin_pending = False
                self._fin_sent = True
                self._emit(_PSH_ACK | FIN, seq, self.rcv_nxt, chunk)
                self.snd_nxt = (seq + size + 1) & 0xFFFFFFFF
                self._after_fin_sent()
            else:
                self._emit(_PSH_ACK, seq, self.rcv_nxt, chunk)
                self.snd_nxt = (seq + size) & 0xFFFFFFFF
        if self._fin_pending:
            self._fin_pending = False
            self._fin_sent = True
            self._emit(FIN | ACK, self.snd_nxt, self.rcv_nxt)
            self.snd_nxt = seq_add(self.snd_nxt, 1)
            self._after_fin_sent()

    def _after_fin_sent(self) -> None:
        if self.state is _ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
        elif self.state is _CLOSE_WAIT:
            self.state = TcpState.LAST_ACK

    def _emit(self, flags: int, seq: int, ack: int, payload: bytes = b"") -> None:
        self.host.send_ip(IPv4Packet.wrap(
            self.local_ip, self.remote_ip,
            TCPSegment(self.local_port, self.remote_port, seq, ack, flags,
                       65535, payload),
            PROTO_TCP))

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        self.closed_at = self.host.sim.now
        if self.on_closed:
            self.on_closed(self)
        # 2*MSL would hold the tuple; a short linger suffices here.
        self.host.sim.schedule(1.0, self._expire_time_wait, label="time-wait")

    def _expire_time_wait(self) -> None:
        if self.state == TcpState.TIME_WAIT:
            self.state = TcpState.CLOSED
            self._release()

    def _enter_closed(self, notify_reset: bool) -> None:
        was_open = self.state not in (TcpState.CLOSED,)
        self.state = TcpState.CLOSED
        self.closed_at = self.host.sim.now
        if notify_reset and self.on_reset:
            self.on_reset(self)
        elif was_open and not notify_reset and self.on_closed:
            self.on_closed(self)
        self._release()

    def _release(self) -> None:
        """Closed for good, the last notification delivered: leave the
        stack's table and drop the callbacks — usually bound methods of
        an object holding this connection, a cycle per flow."""
        self.host.tcp.forget(self)
        self.on_established = self.on_data = self.on_remote_close = None
        self.on_closed = self.on_reset = self.on_fail = None

    def __repr__(self) -> str:
        return (
            f"<TcpConnection {self.local_ip}:{self.local_port}->"
            f"{self.remote_ip}:{self.remote_port} {self.state.value}>"
        )


class TcpListener:
    """A passive socket: accepts SYNs on a port."""

    def __init__(
        self,
        port: int,
        on_accept: Callable[[TcpConnection], None],
    ) -> None:
        self.port = port
        self.on_accept = on_accept
        self.accepted = 0


class TcpStack:
    """Per-host TCP: demultiplexing, listeners, ephemeral ports."""

    EPHEMERAL_BASE = 1024

    def __init__(self, host: "Host") -> None:
        self.host = host
        self._connections: Dict[ConnectionKey, TcpConnection] = {}
        # Connections per local port, so allocate_port never scans.
        self._port_use: Dict[int, int] = {}
        self._listeners: Dict[int, TcpListener] = {}
        self._any_listener: Optional[TcpListener] = None
        self._next_ephemeral = self.EPHEMERAL_BASE
        self.resets_sent = 0

    # ------------------------------------------------------------------
    def pick_isn(self) -> int:
        """Random ISN from the host's deterministic RNG stream."""
        return self.host.rng.randrange(1 << 32)

    def allocate_port(self) -> int:
        for _ in range(64512):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > 65535:
                self._next_ephemeral = self.EPHEMERAL_BASE
            if port not in self._listeners and port not in self._port_use:
                return port
        raise RuntimeError("ephemeral port space exhausted")

    # ------------------------------------------------------------------
    def listen(
        self, port: int, on_accept: Callable[[TcpConnection], None]
    ) -> TcpListener:
        if port in self._listeners:
            raise RuntimeError(f"port {port} already listening")
        listener = TcpListener(port, on_accept)
        self._listeners[port] = listener
        return listener

    def listen_any(
        self, on_accept: Callable[[TcpConnection], None]
    ) -> TcpListener:
        """Wildcard listener: accept SYNs on *any* port without a more
        specific listener.  Catch-all sink servers rely on this."""
        listener = TcpListener(-1, on_accept)
        self._any_listener = listener
        return listener

    def unlisten(self, port: int) -> None:
        self._listeners.pop(port, None)

    def connect(
        self,
        remote_ip: IPv4Address,
        remote_port: int,
        local_port: Optional[int] = None,
    ) -> TcpConnection:
        if self.host.ip is None:
            raise RuntimeError(f"host {self.host.name} has no IP address yet")
        local_port = local_port if local_port is not None else self.allocate_port()
        conn = TcpConnection(
            self.host, self.host.ip, local_port, IPv4Address(remote_ip), remote_port
        )
        self._register(conn)
        # Defer the SYN one scheduler tick so callers can set callbacks first.
        self.host.sim.schedule(0.0, conn.open_active, label="tcp-connect")
        return conn

    def _register(self, conn: TcpConnection) -> None:
        key = conn.key
        if key not in self._connections:
            port = conn.local_port
            self._port_use[port] = self._port_use.get(port, 0) + 1
        self._connections[key] = conn

    def forget(self, conn: TcpConnection) -> None:
        if self._connections.pop(conn.key, None) is None:
            return
        port = conn.local_port
        left = self._port_use[port] - 1
        if left:
            self._port_use[port] = left
        else:
            del self._port_use[port]

    def connection_count(self) -> int:
        return len(self._connections)

    def connections(self) -> List[TcpConnection]:
        return list(self._connections.values())

    # ------------------------------------------------------------------
    def packet_arrived(self, packet: IPv4Packet) -> None:
        segment = packet.payload
        if not isinstance(segment, TCPSegment):
            raise TypeError("payload is not TCP")
        flags = segment.flags
        pure_syn = flags & _SYN_ACK == SYN
        conn = self._connections.get(
            (packet.dst.value, segment.dport, packet.src.value, segment.sport))
        if conn is not None:
            # A pure SYN with a new ISN on an established tuple is a
            # new incarnation (the peer was reverted/rebooted and is
            # reusing its ports): retire the stale connection and let
            # the listener take the SYN.
            if (pure_syn and conn.state is not _SYN_SENT
                    and conn.state is not _SYN_RCVD
                    and segment.seq != conn.irs):
                conn._enter_closed(notify_reset=True)
            else:
                conn.segment_arrived(segment)
                return
        if pure_syn:
            listener = self._listeners.get(segment.dport) or self._any_listener
            if listener is not None:
                conn = TcpConnection(
                    self.host, packet.dst, segment.dport, packet.src, segment.sport
                )
                self._register(conn)
                listener.accepted += 1
                listener.on_accept(conn)
                conn.handle_passive_syn(segment)
                return
        if not flags & RST:
            self._send_reset(packet)

    def _send_reset(self, packet: IPv4Packet) -> None:
        """RFC-style RST for segments to nonexistent endpoints."""
        segment = packet.tcp
        self.resets_sent += 1
        if segment.has_ack:
            reply = TCPSegment(
                sport=segment.dport, dport=segment.sport,
                seq=segment.ack, ack=0, flags=RST,
            )
        else:
            reply = TCPSegment(
                sport=segment.dport, dport=segment.sport,
                seq=0, ack=seq_add(segment.seq, segment.seq_len), flags=RST | ACK,
            )
        self.host.send_ip(IPv4Packet(packet.dst, packet.src, reply))
