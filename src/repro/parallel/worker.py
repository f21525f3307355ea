"""Shard execution and the multi-host worker agent.

This module is the *execution* half of ``repro.parallel`` — everything
that runs on the machine that owns the shard, as opposed to the
scheduler (:mod:`repro.parallel.pool`) that decides where shards go.
Three layers share one execution function:

* :func:`execute_spec` — run one shard spec, always returning a
  structured result dict.  The serial fallback calls it in-process;
  every worker process calls it behind a pipe or a socket.
* :func:`pipe_worker_main` — the worker loop over a duplex
  :mod:`multiprocessing` pipe.  ``LocalTransport`` spawns processes
  whose target is this function; the socket agent spawns the *same*
  function behind a relay, so local and remote shards execute through
  byte-identical machinery.
* :func:`serve` / ``python -m repro.parallel.worker`` — the **host
  agent** for multi-host campaigns.  It listens on TCP; every accepted
  connection becomes one worker *slot*: a freshly spawned subprocess
  wired to the connection through a relay thread.  A slot that dies
  mid-shard (crash, OOM kill) only drops its own connection — the
  master sees EOF, fails the in-flight shard, reconnects, and the
  agent spawns a fresh slot.  SSH (or any launcher) only needs to
  start the agent; the wire contract is the same length-prefixed JSON
  either way (see docs/PARALLELISM.md, "Multi-host dispatch").

Every message a worker sends or receives is JSON-safe; the socket
framing lives in :mod:`repro.parallel.transport`.
"""

from __future__ import annotations

import gc
import json
import os
import socket as socket_module
import sys
import time
import traceback
from typing import Optional

from repro.parallel.campaign import resolve_task

__all__ = [
    "execute_spec",
    "host_info",
    "pipe_worker_main",
    "serve",
]

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
        # The JSON round trip is the wire contract: whatever crosses
        # process boundaries must survive it, so enforce it in both
        # the serial and subprocess paths for identical behaviour.
        payload = json.loads(json.dumps(payload))
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
# The pipe worker loop (LocalTransport processes and agent slots)
# ----------------------------------------------------------------------
def pipe_worker_main(conn, worker_id: int) -> None:
    """Worker loop: announce the host, receive chunks of spec dicts,
    announce and run each shard, report results, idle until the next
    chunk or ``stop``."""
    global _IN_WORKER
    _IN_WORKER = True
    try:
        conn.send(("ready", host_info()))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            assert message[0] == "run", message
            for spec_dict in message[1]:
                conn.send(("start", spec_dict["index"]))
                result = execute_spec(spec_dict)
                conn.send(("done", spec_dict["index"], result))
            conn.send(("idle", worker_id))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# The host agent: TCP listener, one spawned slot per connection
# ----------------------------------------------------------------------
def _serve_session(ctx, sock, session_id: int) -> None:
    """Relay one master connection to a freshly spawned worker slot.

    The slot is a real subprocess so a crashing shard kills only the
    slot: its pipe EOFs, the relay closes the socket, and the master's
    crash isolation takes over.  A master that closes the socket
    (timeout kill, campaign end) gets the symmetric treatment — the
    slot process is killed so a hung shard cannot leak.
    """
    from multiprocessing.connection import wait as connection_wait

    from repro.parallel.transport import FrameDecoder, encode_frame

    parent_conn, child_conn = ctx.Pipe(duplex=True)
    proc = ctx.Process(target=pipe_worker_main,
                       args=(child_conn, session_id),
                       name=f"gq-agent-slot-{session_id}",
                       daemon=True)
    proc.start()
    child_conn.close()
    decoder = FrameDecoder()
    try:
        while True:
            ready = connection_wait([sock, parent_conn], timeout=1.0)
            if sock in ready:
                try:
                    data = sock.recv(1 << 16)
                except OSError:
                    break
                if not data:
                    break  # master gone: kill the slot below
                for message in decoder.feed(data):
                    parent_conn.send(tuple(message))
            if parent_conn in ready:
                try:
                    while parent_conn.poll():
                        sock.sendall(encode_frame(parent_conn.recv()))
                except (EOFError, OSError):
                    break  # slot died (or stopped): drop the socket
            if not ready and not proc.is_alive():
                break
    finally:
        try:
            sock.shutdown(socket_module.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass
        try:
            parent_conn.close()
        except OSError:
            pass
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)


def serve(host: str = "127.0.0.1", port: int = 0,
          max_sessions: Optional[int] = None,
          announce=print) -> None:
    """Run the host agent: accept connections forever (or for
    ``max_sessions``), one spawned worker slot per connection.

    ``port=0`` binds an ephemeral port; the agent announces
    ``gq-worker listening on HOST:PORT`` on stdout either way so a
    launcher (SSH script, :func:`repro.parallel.transport.start_local_agent`,
    a test) can discover the address.
    """
    import multiprocessing as mp
    import threading

    ctx = mp.get_context("spawn")
    listener = socket_module.socket(socket_module.AF_INET,
                                    socket_module.SOCK_STREAM)
    listener.setsockopt(socket_module.SOL_SOCKET,
                        socket_module.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen()
    bound_host, bound_port = listener.getsockname()[:2]
    announce(f"gq-worker listening on {bound_host}:{bound_port}",
             flush=True)
    sessions = 0
    threads = []
    try:
        while max_sessions is None or sessions < max_sessions:
            conn, _addr = listener.accept()
            thread = threading.Thread(
                target=_serve_session, args=(ctx, conn, sessions),
                name=f"gq-agent-session-{sessions}", daemon=True)
            thread.start()
            threads.append(thread)
            sessions += 1
    except KeyboardInterrupt:
        pass
    finally:
        listener.close()
        for thread in threads:
            thread.join(timeout=5.0)


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
