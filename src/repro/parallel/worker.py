"""Shard execution, the worker slot and the multi-host worker agent.

This module is the *execution* half of ``repro.parallel`` — everything
that runs on the machine that owns the shard, as opposed to the
scheduler (:mod:`repro.parallel.pool`) that decides where shards go.
Three layers share one execution function:

* :func:`execute_spec` — run one shard spec, always returning a
  structured result dict.  The serial fallback calls it in-process;
  every slot calls it for each shard it is sent.
* :func:`worker_main` — the slot: one spawned process at the far end
  of one stream socket, speaking the length-prefixed JSON frames of
  :mod:`repro.parallel.transport`.  ``LocalTransport`` hands it one
  end of a socketpair; the agent hands it an accepted connection.  It
  ends itself when that connection closes, even mid-shard.
* :func:`serve` / ``python -m repro.parallel.worker`` — the **host
  agent** for multi-host campaigns.  It listens on TCP and passes
  every accepted connection straight to a freshly spawned slot.  A
  slot that dies mid-shard (crash, OOM kill) only drops its own
  connection — the master sees EOF, fails the in-flight shard,
  reconnects, and the agent spawns a fresh slot.  SSH (or any
  launcher) only needs to start the agent (see docs/PARALLELISM.md,
  "Multi-host dispatch").
"""

from __future__ import annotations

import gc
import json
import os
import queue
import socket as socket_module
import sys
import threading
import time
import traceback
from typing import Optional

from repro.parallel import transport
from repro.parallel.campaign import resolve_task

__all__ = [
    "execute_spec",
    "host_info",
    "serve",
    "worker_main",
]

# What a ``done`` frame adds around its payload, with room to spare.
_DONE_ENVELOPE = 256

# True only inside a worker process.  Worker-process faults
# (repro.faults) behave destructively there — os._exit, a real hang —
# and degrade to structured failures on the serial path so the test
# process itself never dies.
_IN_WORKER = False


def host_info() -> dict:
    """What a worker announces about its host in the ``ready`` frame.

    ``host_cpus``/``sched_cpus`` feed the scheduling-honesty record the
    campaign merge persists per host (docs/PARALLELISM.md): a campaign
    that ran 8 workers on a 1-cpu box should say so next to its
    numbers.
    """
    try:
        sched = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        sched = None
    return {
        "host": socket_module.gethostname(),
        "pid": os.getpid(),
        "host_cpus": os.cpu_count(),
        "sched_cpus": sched,
    }


# ----------------------------------------------------------------------
# Shard execution — shared by the serial path and every worker kind
# ----------------------------------------------------------------------
def execute_spec(spec_dict: dict) -> dict:
    """Run one shard spec; always returns a structured result dict."""
    started = time.perf_counter()

    def failure(kind: str, exc: BaseException) -> dict:
        return {
            "ok": False,
            "payload": None,
            "error": {
                "kind": kind,
                "message": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(limit=20),
            },
            "seconds": time.perf_counter() - started,
        }

    fault = spec_dict.get("fault")
    if fault is not None:
        outcome = _apply_worker_fault(fault, started)
        if outcome is not None:
            return outcome

    try:
        fn = resolve_task(spec_dict["task"])
        payload = fn(**spec_dict.get("params", {}))
    except Exception as exc:  # noqa: BLE001 — becomes a structured error
        return failure("error", exc)
    try:
        if not isinstance(payload, dict):
            raise TypeError(
                f"shard task returned {type(payload).__name__}, "
                "expected a JSON-safe dict")
        # The JSON round trip and the frame bound are the wire
        # contract: whatever crosses process boundaries must survive
        # them, so enforce both on the serial path too.
        blob = json.dumps(payload, separators=(",", ":"))
        if len(blob) > transport.MAX_FRAME_BYTES - _DONE_ENVELOPE:
            raise ValueError(
                f"payload of {len(blob)} bytes does not fit a "
                f"{transport.MAX_FRAME_BYTES}-byte frame")
        payload = json.loads(blob)
        if payload.get("certificate") is not None:  # the merge reads it
            from repro.verify.certificate import check_certificate
            check_certificate(payload["certificate"])
    except Exception as exc:  # noqa: BLE001
        return failure("payload", exc)
    result = {"ok": True, "payload": payload, "error": None,
              "seconds": time.perf_counter() - started}
    # The shard's farm is dead but cyclic, and a farm allocates too few
    # GC-tracked objects for an automatic full collection to come soon:
    # without this a warm worker's RSS is the sum of its past shards.
    gc.collect()
    return result


def _apply_worker_fault(fault: dict, started: float) -> Optional[dict]:
    """Enact a worker-process fault stamped onto a shard spec.

    In a real worker the crash and hang are genuine (the scheduler's
    crash isolation and timeout machinery must recover); on the serial
    path they degrade to the structured failure the scheduler would
    eventually record, so running with ``workers=1`` stays hermetic.
    """
    kind = fault.get("kind")
    if kind == "worker_crash":
        if _IN_WORKER:
            os._exit(int(fault.get("exitcode", 134)))
        return {
            "ok": False,
            "payload": None,
            "error": {"kind": "crash",
                      "message": "injected worker crash (serial path)"},
            "seconds": time.perf_counter() - started,
        }
    if kind == "worker_hang":
        if _IN_WORKER:
            time.sleep(float(fault.get("wall_seconds", 3600.0)))
            return None  # killed long before this on any sane timeout
        return {
            "ok": False,
            "payload": None,
            "error": {"kind": "timeout",
                      "message": "injected worker hang (serial path)"},
            "seconds": time.perf_counter() - started,
        }
    if kind == "worker_error":
        return {
            "ok": False,
            "payload": None,
            "error": {"kind": "error",
                      "message": str(fault.get("message",
                                               "injected worker error"))},
            "seconds": time.perf_counter() - started,
        }
    return None


# ----------------------------------------------------------------------
# The slot: one process at the far end of one stream socket
# ----------------------------------------------------------------------
def worker_main(sock, worker_id: int) -> None:
    """Slot loop: announce the host, then for every ``["run", spec]``
    announce the shard, run it and report its result.

    ``LocalTransport`` spawns this on one end of a socketpair and the
    host agent on each accepted connection, so every slot is the same
    process speaking the same frames.  A daemon thread reads the
    socket and ends the process the moment the connection closes,
    mid-shard included: closing the connection is how a master stops
    a slot, and how a timed-out shard dies.
    """
    global _IN_WORKER
    _IN_WORKER = True
    specs: queue.SimpleQueue = queue.SimpleQueue()
    threading.Thread(target=_read_specs, args=(sock, specs),
                     name=f"gq-slot-reader-{worker_id}",
                     daemon=True).start()

    def send(message: list) -> None:
        sock.sendall(transport.encode_frame(message))

    try:
        send(["ready", host_info()])
        while True:
            spec_dict = specs.get()
            send(["start", spec_dict["index"]])
            send(["done", spec_dict["index"], execute_spec(spec_dict)])
    except (OSError, KeyboardInterrupt):
        pass


def _read_specs(sock, specs: queue.SimpleQueue) -> None:
    """Queue the spec of every ``run`` frame; exit the process when the
    connection closes or breaks."""
    decoder = transport.FrameDecoder()
    try:
        for data in iter(lambda: sock.recv(1 << 16), b""):
            for _run, spec_dict in decoder.feed(data):
                specs.put(spec_dict)
    # A broken connection, or a peer that does not speak the protocol,
    # is a closed one.
    except (OSError, ValueError, TypeError, transport.TransportError):
        pass
    os._exit(0)


# ----------------------------------------------------------------------
# The host agent: TCP listener, one spawned slot per connection
# ----------------------------------------------------------------------
def serve(host: str = "127.0.0.1", port: int = 0,
          max_sessions: Optional[int] = None,
          announce=print) -> None:
    """Run the host agent: accept connections forever (or for
    ``max_sessions``), handing each to a freshly spawned slot.

    The agent relays nothing.  A slot that crashes drops only its own
    connection; a master that closes it ends the slot, whether or not
    the agent is still alive.  ``port=0`` binds an ephemeral port; the
    agent announces ``gq-worker listening on HOST:PORT`` on stdout
    either way so a launcher (SSH script,
    :func:`repro.parallel.transport.start_local_agent`, a test) can
    discover the address.
    """
    import multiprocessing as mp

    ctx = mp.get_context("spawn")
    listener = socket_module.create_server((host, port))
    bound_host, bound_port = listener.getsockname()[:2]
    announce(f"gq-worker listening on {bound_host}:{bound_port}",
             flush=True)
    sessions = 0
    try:
        while max_sessions is None or sessions < max_sessions:
            conn, _addr = listener.accept()
            ctx.Process(target=worker_main, args=(conn, sessions),
                        name=f"gq-agent-slot-{sessions}",
                        daemon=True).start()
            conn.close()  # the slot holds the connection now
            sessions += 1
    except KeyboardInterrupt:
        pass
    finally:
        listener.close()
        for proc in mp.active_children():
            proc.join()


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel.worker",
        description="GQ campaign worker agent: serves shard execution "
                    "slots over TCP (one spawned subprocess per "
                    "connection; see docs/PARALLELISM.md)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="address to listen on (default 127.0.0.1; "
                             "use 0.0.0.0 behind a trusted network "
                             "only — frames are not authenticated)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = ephemeral, announced on "
                             "stdout)")
    parser.add_argument("--max-sessions", type=int, default=None,
                        help="exit after serving this many "
                             "connections (default: serve forever)")
    args = parser.parse_args(argv)
    serve(host=args.host, port=args.port,
          max_sessions=args.max_sessions)
    return 0


if __name__ == "__main__":
    sys.exit(main())
