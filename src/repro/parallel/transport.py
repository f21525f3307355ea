"""Worker transports: how shard dispatch reaches execution slots.

Every execution slot is one process running
:func:`repro.parallel.worker.worker_main` at the far end of a stream
socket, and the master holds the near end in a
:class:`LocalWorkerHandle`.  Both ends speak **length-prefixed JSON
frames** (4-byte big-endian length, UTF-8 JSON body, 64 MiB bound):

====================  ================================================
master → slot         ``["run", spec_dict]``
slot → master         ``["ready", host_info]`` · ``["start", index]``
                      · ``["done", index, result_dict]``
====================  ================================================

A slot runs one shard per ``run`` and is idle again once its ``done``
arrives.  Two transports differ only in where the far end comes from:

* :class:`LocalTransport` spawns the slot process itself, handing it
  one end of a ``socket.socketpair()``.
* :class:`SocketTransport` dials a ``python -m repro.parallel.worker``
  host agent (see :mod:`repro.parallel.worker`), which spawns the slot
  on the accepted connection.  SSH is just a launcher for the agent;
  the transport only ever sees ``host:port`` endpoints.

Closing the handle is the only way to stop a slot: the slot ends
itself when its connection closes, even mid-shard.  A slot that dies
makes its handle's :meth:`LocalWorkerHandle.drain` raise
:class:`TransportError` whose message names the death, and the
scheduler fails only the in-flight shard.
"""

from __future__ import annotations

import json
import os
import select
import socket
import struct
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.shape import NUMBER, REQUIRED, Table, check

__all__ = [
    "MASTER_FRAMES",
    "SLOT_FRAMES",
    "FrameDecoder",
    "LocalTransport",
    "LocalWorkerHandle",
    "SocketTransport",
    "TransportError",
    "encode_frame",
    "local_agents",
    "parse_endpoint",
    "read_frame",
    "start_local_agent",
]

_FRAME_HEADER = struct.Struct(">I")
# Shard specs and result payloads are small JSON documents; anything
# near this bound is a bug (or an attack on an exposed agent port),
# not a campaign.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class TransportError(RuntimeError):
    """A worker endpoint failed: died, unreachable, or spoke garbage."""


#: Every frame of the wire by tag: the rows of its table are the
#: frame's elements after the tag, in order.  A ``run`` spec needs a
#: readable index here; the rest of it is the slot's to check, so that
#: a bad spec fails its shard rather than the connection.
MASTER_FRAMES: Dict[str, Table] = {
    "run": Table("run frame", {"spec": (Table("run spec", {
        "index": (int, REQUIRED)}, open=True), REQUIRED)}),
}
SLOT_FRAMES: Dict[str, Table] = {
    "ready": Table("ready frame", {"info": (Table("host info", {
        "host": (str, None), "host_cpus": (int, None),
        "sched_cpus": (int, None)}, open=True), REQUIRED)}),
    "start": Table("start frame", {"index": (int, REQUIRED)}),
    "done": Table("done frame", {"index": (int, REQUIRED), "result": (
        Table("shard result", {
            "ok": (bool, REQUIRED), "payload": ((dict, type(None)), REQUIRED),
            "error": ((dict, type(None)), REQUIRED),
            "seconds": (NUMBER, REQUIRED)}), REQUIRED)}),
}


def read_frame(frames: Dict[str, Table], message) -> dict:
    """``message``'s elements by name if it is one of ``frames``: a
    list of a known tag and exactly its table's elements, each of the
    right shape.  A ``ValueError`` otherwise."""
    tag = message[0] if isinstance(message, list) and message else None
    table = frames.get(tag) if isinstance(tag, str) else None
    if table is None or len(message) != 1 + len(table.fields):
        raise ValueError(f"not a frame of this wire: {message!r:.80}")
    return check(table, dict(zip(table.fields, message[1:])))


# ----------------------------------------------------------------------
# Frame codec (the one wire format)
# ----------------------------------------------------------------------
def encode_frame(message) -> bytes:
    """``message`` (any JSON-safe tuple/list/dict) → one wire frame."""
    blob = json.dumps(message, separators=(",", ":")).encode()
    if len(blob) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {len(blob)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound")
    return _FRAME_HEADER.pack(len(blob)) + blob


class FrameDecoder:
    """Incremental decoder: feed byte chunks, get decoded messages."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[list]:
        out = []
        self._buffer += data
        while True:
            if len(self._buffer) < _FRAME_HEADER.size:
                break
            (length,) = _FRAME_HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise TransportError(
                    f"peer announced a {length}-byte frame "
                    f"(bound {MAX_FRAME_BYTES})")
            end = _FRAME_HEADER.size + length
            if len(self._buffer) < end:
                break
            blob = bytes(self._buffer[_FRAME_HEADER.size:end])
            del self._buffer[:end]
            try:
                out.append(json.loads(blob))
            # Nesting past the interpreter's recursion limit is as
            # undecodable as bad UTF-8 or bad JSON.
            except (ValueError, RecursionError) as exc:
                raise TransportError(f"undecodable frame: {exc}") from exc
        return out


def parse_endpoint(endpoint: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)``, validated."""
    host, sep, port_text = endpoint.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"endpoint must look like 'host:port', got {endpoint!r}")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(
            f"endpoint {endpoint!r} has a non-numeric port") from exc
    if not 0 < port < 65536:
        raise ValueError(f"endpoint {endpoint!r} port out of range")
    return host, port


# ----------------------------------------------------------------------
# The worker handle
# ----------------------------------------------------------------------
class LocalWorkerHandle:
    """The master's end of one slot's socket, for local and agent slots
    alike.

    ``host`` is a display name (the slot's ``ready`` frame names its
    real host); ``proc`` is the slot process when this master spawned
    it, joined on :meth:`close` so its resource usage is reaped here.
    """

    def __init__(self, wid: int, host: str, sock, proc=None) -> None:
        self.id = wid
        self.host = host
        self.sock = sock
        self.proc = proc
        self._decoder = FrameDecoder()
        # Why the connection is over, once it is.
        self._closed: Optional[str] = None

    def send(self, message) -> None:
        try:
            self.sock.sendall(encode_frame(message))
        except OSError as exc:
            raise TransportError(
                f"worker {self.id} died before accepting its shard "
                f"(send to {self.host} failed: {exc})") from exc

    def drain(self) -> List[tuple]:
        """All queued messages, non-blocking, each a frame of
        :data:`SLOT_FRAMES`.  Raises :class:`TransportError` once the
        slot is gone (message contains ``died``) or has sent a frame
        that is not one, and nothing before it is left to deliver."""
        out: List[tuple] = []
        while self._closed is None \
                and select.select([self.sock], [], [], 0)[0]:
            try:
                data = self.sock.recv(1 << 16)
            except OSError:
                data = b""
            if not data:
                self._closed = \
                    f"worker died (connection to {self.host} closed)"
                break
            try:
                for message in self._decoder.feed(data):
                    read_frame(SLOT_FRAMES, message)
                    out.append(tuple(message))
            except (TransportError, ValueError) as exc:
                self._closed = (f"worker {self.id} on {self.host} broke "
                                f"the wire: {exc}")
        if self._closed is not None and not out:
            raise TransportError(self._closed)
        return out

    def close(self) -> None:
        """Close the connection, which ends the slot (mid-shard too)."""
        self._closed = "closed by the master"
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        if self.proc is not None:
            self.proc.join(timeout=5.0)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(timeout=5.0)


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
class LocalTransport:
    """Spawned slot processes on this host, one socketpair each."""

    kind = "local"

    def __init__(self) -> None:
        self._next_id = 0

    def launch(self) -> LocalWorkerHandle:
        import multiprocessing as mp

        from repro.parallel.worker import worker_main

        ours, theirs = socket.socketpair()
        proc = mp.get_context("spawn").Process(
            target=worker_main, args=(theirs, self._next_id),
            name=f"gq-shard-worker-{self._next_id}", daemon=True)
        proc.start()
        theirs.close()  # the slot holds the only other end
        handle = LocalWorkerHandle(self._next_id, "local", ours, proc)
        self._next_id += 1
        return handle


class SocketTransport:
    """TCP connections to one or more host agents, round-robin.

    ``endpoints`` is a list of ``"host:port"`` strings (or one
    comma-separated string).  More workers than endpoints simply opens
    more connections per agent — each connection is its own spawned
    slot on the agent side, so a 16-worker campaign over 4 hosts runs
    4 slots per host.
    """

    kind = "socket"

    def __init__(self, endpoints: Union[str, Sequence[str]],
                 connect_timeout: float = 10.0) -> None:
        if isinstance(endpoints, str):
            endpoints = [part.strip() for part in endpoints.split(",")
                         if part.strip()]
        if not endpoints:
            raise ValueError("SocketTransport needs at least one "
                             "'host:port' endpoint")
        self.endpoints = [
            (endpoint, parse_endpoint(endpoint)) for endpoint in endpoints
        ]
        self.connect_timeout = connect_timeout
        self._next_id = 0
        self._cursor = 0

    def launch(self) -> LocalWorkerHandle:
        errors = []
        for _ in range(len(self.endpoints)):
            endpoint, (host, port) = \
                self.endpoints[self._cursor % len(self.endpoints)]
            self._cursor += 1
            try:
                sock = socket.create_connection(
                    (host, port), timeout=self.connect_timeout)
            except OSError as exc:
                errors.append(f"{endpoint}: {exc}")
                continue
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            handle = LocalWorkerHandle(self._next_id, endpoint, sock)
            self._next_id += 1
            return handle
        raise TransportError(
            "no worker agent reachable: " + "; ".join(errors))


# ----------------------------------------------------------------------
# Local agent launching (tests, benches, single-host socket runs)
# ----------------------------------------------------------------------
def start_local_agent(host: str = "127.0.0.1",
                      startup_timeout: float = 30.0):
    """Start a ``python -m repro.parallel.worker`` agent on an
    ephemeral port; return ``(Popen, "host:port")``.

    This is the degenerate launcher — the same agent an SSH launcher
    would start on a remote host, here started locally so tests and
    the benchmark can exercise the socket path hermetically.  An agent
    that has not announced its port within ``startup_timeout`` seconds
    is killed and reported as a :class:`TransportError`.
    """
    src_dir = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    parts = [src_dir] + [p for p in
                         env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.parallel.worker",
         "--host", host, "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    deadline = time.monotonic() + startup_timeout
    output = b""
    # Until the announcement's line is complete: wait on the pipe, not
    # in a read, so an agent that never writes cannot outlast the
    # deadline.
    while b"listening on" not in output.rpartition(b"\n")[0]:
        remaining = deadline - time.monotonic()
        ready = remaining > 0 and \
            select.select([proc.stdout], [], [], remaining)[0]
        chunk = os.read(proc.stdout.fileno(), 4096) if ready else b""
        if not chunk:
            proc.kill()
            code = proc.wait()
            raise TransportError(
                f"worker agent exited at startup (code {code})" if ready
                else f"worker agent did not announce its port within "
                     f"{startup_timeout:g}s")
        output += chunk
    line = next(line for line in output.decode().splitlines()
                if "listening on" in line)
    return proc, line.rsplit("listening on", 1)[1].strip()


@contextmanager
def local_agents(count: int = 1, host: str = "127.0.0.1"):
    """Context manager: ``count`` local agents, yielding their
    endpoints; agents are killed on exit."""
    procs = []
    endpoints = []
    try:
        for _ in range(count):
            proc, endpoint = start_local_agent(host=host)
            procs.append(proc)
            endpoints.append(endpoint)
        yield endpoints
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                pass
