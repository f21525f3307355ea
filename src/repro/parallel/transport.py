"""Worker transports: how shard dispatch reaches execution slots.

The scheduler (:mod:`repro.parallel.pool`) is transport-agnostic: it
talks to :class:`WorkerHandle` objects that carry the same message
vocabulary everywhere —

====================  ================================================
master → worker       ``("run", [spec_dict, ...])`` · ``("stop",)``
worker → master       ``("ready", host_info)`` · ``("start", index)``
                      · ``("done", index, result_dict)`` ·
                      ``("idle", worker_id)``
====================  ================================================

Two transports implement it:

* :class:`LocalTransport` — today's warm spawn-based process pool: a
  fresh ``spawn`` interpreter per worker, a private duplex pipe,
  messages pickled by :mod:`multiprocessing`.
* :class:`SocketTransport` — multi-host dispatch: each worker slot is
  a TCP connection to a ``python -m repro.parallel.worker`` host agent
  (see :mod:`repro.parallel.worker`), messages as **length-prefixed
  JSON frames** (4-byte big-endian length, UTF-8 JSON body).  Because
  shard payloads already survive a JSON round trip (the pool's wire
  contract since PR 3), the frames carry exactly the same data the
  pipe carries — digests are byte-identical across transports.  SSH is
  just a launcher for the agent; the transport only ever sees
  ``host:port`` endpoints.

Both transports expose crash isolation the same way: a worker that
dies makes its handle's :meth:`WorkerHandle.drain` raise
:class:`TransportError` whose message names the death, and the
scheduler fails only the in-flight shard.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import List, Sequence, Tuple, Union

__all__ = [
    "FrameDecoder",
    "LocalTransport",
    "SocketTransport",
    "Transport",
    "TransportError",
    "WorkerHandle",
    "encode_frame",
    "local_agents",
    "parse_endpoint",
    "start_local_agent",
]

_FRAME_HEADER = struct.Struct(">I")
# Shard specs and result payloads are small JSON documents; anything
# near this bound is a bug (or an attack on an exposed agent port),
# not a campaign.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class TransportError(RuntimeError):
    """A worker endpoint failed: died, unreachable, or spoke garbage."""


# ----------------------------------------------------------------------
# Frame codec (SocketTransport wire format)
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
# Worker handles
# ----------------------------------------------------------------------
class WorkerHandle:
    """One execution slot, wherever it lives.

    ``waitable`` is an object :func:`multiprocessing.connection.wait`
    accepts (a pipe connection or a socket) so the scheduler can sleep
    on a mixed pool with one call.
    """

    id: int
    host: str        # display name; refined by the worker's ready info
    info: dict       # the worker's ``ready`` host_info (once received)

    def send(self, message: tuple) -> None:
        raise NotImplementedError

    def drain(self) -> List[tuple]:
        """All queued messages, non-blocking.  Raises
        :class:`TransportError` (message contains ``died``) once the
        worker is gone and the queue is empty."""
        raise NotImplementedError

    @property
    def waitable(self):
        raise NotImplementedError

    def alive(self) -> bool:
        raise NotImplementedError

    def kill(self) -> None:
        """Hard-stop the slot (timeout enforcement)."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class LocalWorkerHandle(WorkerHandle):
    """A spawn-started process behind a private duplex pipe."""

    def __init__(self, wid: int, proc, conn) -> None:
        self.id = wid
        self.host = "local"
        self.info = {}
        self.proc = proc
        self.conn = conn

    def send(self, message: tuple) -> None:
        try:
            self.conn.send(tuple(message))
        except (OSError, BrokenPipeError, ValueError) as exc:
            raise TransportError(
                f"worker {self.id} died before accepting its chunk "
                f"({exc})") from exc

    def drain(self) -> List[tuple]:
        out = []
        try:
            while self.conn.poll():
                out.append(tuple(self.conn.recv()))
        except (EOFError, OSError) as exc:
            if out:
                return out  # deliver what arrived; death shows next call
            self.proc.join(timeout=1.0)
            raise TransportError(
                f"worker process died "
                f"(exitcode={self.proc.exitcode})") from exc
        return out

    @property
    def waitable(self):
        return self.conn

    def alive(self) -> bool:
        return self.proc.is_alive()

    def kill(self) -> None:
        try:
            self.proc.kill()
        except OSError:
            pass

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=5.0)


class SocketWorkerHandle(WorkerHandle):
    """One TCP connection to a host agent = one remote slot."""

    def __init__(self, wid: int, endpoint: str, sock) -> None:
        self.id = wid
        self.host = endpoint
        self.info = {}
        self.sock = sock
        self._decoder = FrameDecoder()
        self._open = True

    def send(self, message: tuple) -> None:
        if not self._open:
            raise TransportError(
                f"worker {self.id} died (connection to {self.host} "
                "already closed)")
        try:
            self.sock.sendall(encode_frame(message))
        except OSError as exc:
            self._open = False
            raise TransportError(
                f"worker {self.id} died before accepting its chunk "
                f"(send to {self.host} failed: {exc})") from exc

    def drain(self) -> List[tuple]:
        import select

        out: List[tuple] = []
        while self._open:
            try:
                readable, _, _ = select.select([self.sock], [], [], 0)
            except OSError:
                self._open = False
                break
            if not readable:
                break
            try:
                data = self.sock.recv(1 << 16)
            except BlockingIOError:
                break
            except OSError:
                self._open = False
                break
            if not data:
                self._open = False
                break
            for message in self._decoder.feed(data):
                out.append(tuple(message))
        if not self._open and not out:
            raise TransportError(
                f"worker died (connection to {self.host} closed)")
        return out

    @property
    def waitable(self):
        return self.sock

    def alive(self) -> bool:
        return self._open

    def kill(self) -> None:
        # Closing the connection makes the agent kill the slot
        # subprocess — remote timeout enforcement without remote state.
        self._open = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    def close(self) -> None:
        self.kill()


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
class Transport:
    """Factory for worker handles; ``kind`` names it in stats."""

    kind = "abstract"

    def launch(self) -> WorkerHandle:
        raise NotImplementedError

    def close(self) -> None:  # release transport-owned resources
        pass

    def describe(self) -> dict:
        return {"kind": self.kind}


class LocalTransport(Transport):
    """The warm spawn-based process pool (the PR-3 behaviour)."""

    kind = "local"

    def __init__(self) -> None:
        self._next_id = 0

    def launch(self) -> LocalWorkerHandle:
        import multiprocessing as mp

        from repro.parallel.worker import pipe_worker_main

        ctx = mp.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(target=pipe_worker_main,
                           args=(child_conn, self._next_id),
                           name=f"gq-shard-worker-{self._next_id}",
                           daemon=True)
        proc.start()
        child_conn.close()  # EOF on parent_conn when the child dies
        handle = LocalWorkerHandle(self._next_id, proc, parent_conn)
        self._next_id += 1
        return handle


class SocketTransport(Transport):
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

    def launch(self) -> SocketWorkerHandle:
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
            handle = SocketWorkerHandle(self._next_id, endpoint, sock)
            self._next_id += 1
            return handle
        raise TransportError(
            "no worker agent reachable: " + "; ".join(errors))

    def describe(self) -> dict:
        return {"kind": self.kind,
                "endpoints": [endpoint for endpoint, _ in self.endpoints]}


# ----------------------------------------------------------------------
# Local agent launching (tests, benches, single-host socket runs)
# ----------------------------------------------------------------------
def start_local_agent(host: str = "127.0.0.1",
                      startup_timeout: float = 30.0):
    """Start a ``python -m repro.parallel.worker`` agent on an
    ephemeral port; return ``(Popen, "host:port")``.

    This is the degenerate launcher — the same agent an SSH launcher
    would start on a remote host, here started locally so tests and
    the benchmark can exercise the socket path hermetically.
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
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=env, text=True, bufsize=1)
    deadline = time.monotonic() + startup_timeout
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "listening on" in line:
            break
        if proc.poll() is not None:
            raise TransportError(
                f"worker agent exited at startup "
                f"(code {proc.returncode})")
    if "listening on" not in line:
        proc.kill()
        raise TransportError("worker agent never announced its port")
    endpoint = line.rsplit("listening on", 1)[1].strip()
    return proc, endpoint


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
