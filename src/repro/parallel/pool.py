"""The sharded campaign runner: one FIFO work queue over worker slots.

Design (mirrors the farm itself: independent habitats, one merge
point):

* **One kind of slot.**  Every slot is a spawned
  :func:`repro.parallel.worker.worker_main` process behind a
  :class:`repro.parallel.transport.LocalWorkerHandle`, speaking
  length-prefixed JSON frames over a stream socket.
  ``LocalTransport`` spawns slots on this host; ``SocketTransport``
  (``hosts=``) has ``python -m repro.parallel.worker`` host agents
  spawn them.  Digests are byte-identical either way because the JSON
  round trip has been the wire contract since the pool existed.
* **One work queue.**  Shards wait in a shared queue in launch order
  and every idle slot takes the next one, a single shard per
  dispatch, so fast workers drain the work a slow host would
  otherwise straggle.  A shard runs on at most one slot at a time:
  every unfinished shard is pending, on exactly one slot, or recorded
  as failed.  (The contiguous pre-partition this replaced is recorded
  as a dated table in docs/PARALLELISM.md.)
* **Crash isolation.**  A worker announces each shard before executing
  it, so when a slot dies — crash, OOM-kill, or the scheduler closing
  its connection to enforce a shard timeout — the master knows exactly
  which shard was in flight: that shard fails with a structured error,
  a shard it had not yet announced is requeued, and a replacement slot
  is launched under a respawn budget of one per shard.  A dead worker
  fails its shard, never the campaign.
* **Round-trip timeouts.**  Per-shard timeouts are measured on the
  master's monotonic clock around the full transport round trip
  (serialize → dispatch → result).  Before killing a slot the
  scheduler drains its connection once more, so a result that is
  already on the wire of a slow link is recorded as the success it is,
  never misreported as a ``timeout`` failure.
* **Scheduling honesty.**  Every worker's ``ready`` frame reports its
  host's ``host_cpus``/``sched_cpus``; the merge persists them per
  host in the campaign metadata and the runner emits a one-line
  warning when a host runs more workers than schedulable cpus.
* **Serial fallback.**  ``workers=1`` (or 0) with no ``hosts`` runs
  every shard in-process through the *same* execution function workers
  use (:func:`repro.parallel.worker.execute_spec`) — no subprocess, no
  socket — so tests stay hermetic and digests comparable.

Wall-clock timeouts are only enforceable when shards run in worker
slots; the serial path documents rather than enforces them.
"""

from __future__ import annotations

import select
import socket as socket_module
import time
import warnings
from collections import deque
from typing import Dict, List, Optional

from repro.parallel.campaign import Campaign, ShardSpec
from repro.parallel.merge import CampaignResult, merge_results
from repro.parallel.transport import (
    LocalTransport,
    SocketTransport,
    TransportError,
)
from repro.parallel.worker import execute_spec, host_info

__all__ = [
    "ShardResult",
    "run_campaign",
]


class ShardResult:
    """Outcome of one shard: payload on success, structured error not
    an exception on failure (``kind``: error | payload | timeout |
    crash | pool).  ``worker`` is the slot id, ``host`` the worker
    host that produced (or lost) the shard."""

    __slots__ = ("index", "label", "ok", "payload", "error", "seconds",
                 "worker", "host")

    def __init__(self, index: int, label: str, ok: bool,
                 payload: Optional[dict], error: Optional[dict],
                 seconds: float, worker: Optional[int] = None,
                 host: Optional[str] = None) -> None:
        self.index = index
        self.label = label
        self.ok = ok
        self.payload = payload
        self.error = error
        self.seconds = seconds
        self.worker = worker
        self.host = host

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "ok": self.ok,
            "payload": self.payload,
            "error": self.error,
            "seconds": round(self.seconds, 6),
            "worker": self.worker,
            "host": self.host,
        }

    def __repr__(self) -> str:
        state = "ok" if self.ok else (self.error or {}).get("kind", "failed")
        return f"<ShardResult {self.index} {self.label} {state}>"


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def run_campaign(campaign: Campaign, workers: int = 1,
                 default_timeout: Optional[float] = None,
                 fault_plan=None,
                 hosts=None,
                 scheduler: str = "steal") -> CampaignResult:
    """Run every shard of ``campaign`` and merge deterministically.

    ``workers <= 1`` with no ``hosts`` is the hermetic serial fallback
    (same execution function, no subprocesses).  ``hosts`` (a list of
    ``"host:port"`` agent endpoints, or one comma-separated string)
    selects :class:`~repro.parallel.transport.SocketTransport`;
    otherwise slots are spawned locally.  ``scheduler`` accepts
    only ``"steal"`` (the shared work queue, the one scheduler there
    is; the frozen ``benchmarks/ledger`` passes it by name).
    ``default_timeout`` applies to shards whose spec does not set its
    own timeout.  ``fault_plan`` (a
    :class:`repro.faults.FaultPlan` or its dict form) stamps
    worker-process faults onto the matching shard specs.
    """
    from repro.faults.plan import FaultPlan

    if scheduler != "steal":
        raise ValueError(f"scheduler must be 'steal', got {scheduler!r}")
    started = time.perf_counter()
    overlay = FaultPlan.coerce(fault_plan).worker_faults()
    if not hosts and (workers <= 1 or len(campaign) <= 1):
        shard_results = _run_serial(campaign, overlay)
        info = host_info()
        hosts_info = {info["host"]: {
            "host_cpus": info["host_cpus"],
            "sched_cpus": info["sched_cpus"],
            "workers": 1,
            "shards": len(shard_results),
        }}
        sched_stats = None
        effective_workers = 1
    else:
        effective_workers = max(1, workers)
        shard_results, hosts_info, sched_stats = _run_scheduled(
            campaign, effective_workers,
            SocketTransport(hosts) if hosts else LocalTransport(),
            default_timeout=default_timeout, overlay=overlay)
    _warn_oversubscribed(hosts_info)
    return merge_results(campaign, shard_results,
                         workers=effective_workers,
                         wall_seconds=time.perf_counter() - started,
                         hosts=hosts_info,
                         scheduler_stats=sched_stats)


def _warn_oversubscribed(hosts_info: Dict[str, dict]) -> None:
    """One line of scheduling honesty: flag hosts running more workers
    than schedulable cpus (speedups will not track worker count)."""
    offenders = [
        f"{host}: {info['workers']} workers > {info['sched_cpus']} "
        f"schedulable cpus"
        for host, info in sorted(hosts_info.items())
        if info.get("sched_cpus") and info.get("workers", 0) > 1
        and info["workers"] > info["sched_cpus"]
    ]
    if offenders:
        warnings.warn(
            "campaign oversubscribed — " + "; ".join(offenders)
            + " (cpu-bound speedup will not track worker count; "
              "see docs/PARALLELISM.md)",
            RuntimeWarning, stacklevel=3)


def _spec_dicts(campaign: Campaign, overlay: Dict[int, dict]) -> List[dict]:
    out = []
    for spec in campaign:
        spec_dict = spec.to_dict()
        fault = overlay.get(spec.index)
        if fault is not None:
            spec_dict["fault"] = fault
        out.append(spec_dict)
    return out


def _run_serial(campaign: Campaign,
                overlay: Dict[int, dict]) -> List[ShardResult]:
    host = socket_module.gethostname()
    out = []
    for spec, spec_dict in zip(campaign, _spec_dicts(campaign, overlay)):
        result = execute_spec(spec_dict)
        out.append(ShardResult(spec.index, spec.label, result["ok"],
                               result["payload"], result["error"],
                               result["seconds"], worker=0, host=host))
    return out


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------
class _Slot:
    """Master-side view of one worker slot, any transport."""

    __slots__ = ("handle", "spec", "current", "shard_clock",
                 "completed", "busy_seconds", "host_key")

    def __init__(self, handle) -> None:
        self.handle = handle
        # The shard dispatched and not yet done.  This is what a
        # timeout or a death is charged against — it does not rely on
        # the ``start`` announcement having crossed a slow link yet.
        self.spec: Optional[dict] = None
        self.current: Optional[int] = None       # last announced shard
        self.shard_clock: float = 0.0            # monotonic, round-trip
        self.completed: int = 0
        self.busy_seconds: float = 0.0
        self.host_key: Optional[str] = None      # set by the ready frame

    @property
    def idle(self) -> bool:
        return self.spec is None


def _run_scheduled(campaign: Campaign, workers: int, transport,
                   default_timeout: Optional[float],
                   overlay: Dict[int, dict]):
    specs: Dict[int, ShardSpec] = {s.index: s for s in campaign}
    total = len(specs)
    workers = min(workers, total)
    pending: deque = deque(_spec_dicts(campaign, overlay))

    results: Dict[int, ShardResult] = {}
    live_per_host: Dict[str, int] = {}
    hosts_info: Dict[str, dict] = {}
    stats = {
        "mode": "steal",
        "transport": transport.kind,
        "workers": workers,
        "dispatches": 0,
        "requeues": 0,
        "respawns": 0,
    }
    active: List[_Slot] = []
    all_slots: List[_Slot] = []
    spawned_total = 0
    respawns_left = total  # every shard may kill at most one worker

    # ------------------------------------------------------------------
    def fail_shard(index: int, kind: str, message: str,
                   worker_id: int, host: Optional[str],
                   seconds: float = 0.0) -> None:
        spec = specs[index]
        results[index] = ShardResult(
            index, spec.label, False, None,
            {"kind": kind, "message": message}, seconds,
            worker=worker_id, host=host)

    def record_ready(slot: _Slot, info: dict) -> None:
        host = info.get("host") or slot.handle.host
        slot.host_key = host
        live_per_host[host] = live_per_host.get(host, 0) + 1
        entry = hosts_info.setdefault(host, {
            "host_cpus": info.get("host_cpus"),
            "sched_cpus": info.get("sched_cpus"),
            "workers": 0,
            "shards": 0,
        })
        entry["workers"] = max(entry["workers"], live_per_host[host])

    def record_done(slot: _Slot, index: int, result: dict) -> None:
        slot.spec = None
        slot.current = None
        slot.busy_seconds += time.monotonic() - slot.shard_clock
        slot.completed += 1
        if slot.host_key in hosts_info:
            hosts_info[slot.host_key]["shards"] += 1
        results[index] = ShardResult(
            index, specs[index].label, result["ok"],
            result["payload"], result["error"], result["seconds"],
            worker=slot.handle.id, host=slot.host_key)

    def ingest(slot: _Slot, messages) -> None:
        """Apply a slot's frames (shaped by ``drain``).  A ``start`` or
        ``done`` for a shard the slot was not sent, or an ``ok`` result
        without a payload, breaks the wire: :class:`TransportError`."""
        for message in messages:
            tag = message[0]
            if tag == "ready":
                record_ready(slot, message[1])
                continue
            if slot.spec is None or message[1] != slot.spec["index"] or (
                    tag == "done" and message[2]["ok"]
                    and message[2]["payload"] is None):
                raise TransportError(
                    f"worker {slot.handle.id} on {slot.handle.host} broke "
                    f"the wire: {tag} {message[1]} while running "
                    f"{slot.spec and slot.spec['index']}")
            if tag == "start":
                slot.current = message[1]
            else:
                record_done(slot, message[1], message[2])

    def release_slot(slot: _Slot) -> None:
        if slot.host_key:
            live_per_host[slot.host_key] = max(
                0, live_per_host.get(slot.host_key, 1) - 1)

    def reap(slot: _Slot, kind: str, message: str,
             elapsed: float = 0.0,
             charge_unannounced: bool = False) -> None:
        """A slot died (crash) or was killed (timeout): fail its
        in-flight shard, or requeue it.

        A crash only *charges* the shard the worker had announced
        (``start``) — a slot that dies before announcing its shard
        gets it requeued.  Timeouts pass ``charge_unannounced=True``:
        the round-trip clock covers dispatch itself, so an unannounced
        shard that blew its deadline is a timeout, not a requeue.
        """
        failed = slot.spec
        if failed is not None:
            if charge_unannounced or slot.current == failed["index"]:
                fail_shard(failed["index"], kind, message, slot.handle.id,
                           slot.host_key, seconds=elapsed)
            else:
                pending.appendleft(failed)
                stats["requeues"] += 1
        slot.spec = None
        slot.current = None
        release_slot(slot)
        slot.handle.close()

    def dispatch(slot: _Slot, spec: dict) -> None:
        slot.spec = spec
        slot.current = None
        # Round-trip clock starts at serialization time (serialize →
        # dispatch → result on one monotonic clock).  A send that
        # fails still counts: its shard is requeued, and every
        # requeue is one more dispatch.
        slot.shard_clock = time.monotonic()
        stats["dispatches"] += 1
        try:
            slot.handle.send(["run", spec])
        except TransportError as exc:
            reap(slot, "crash", str(exc))
            active.remove(slot)

    def launch_slot() -> Optional[_Slot]:
        nonlocal spawned_total
        try:
            handle = transport.launch()
        except TransportError:
            return None
        slot = _Slot(handle)
        spawned_total += 1
        active.append(slot)
        all_slots.append(slot)
        return slot

    # ------------------------------------------------------------------
    try:
        while len(results) < total:
            # Keep the pool at strength while unassigned work remains:
            # the initial `workers` spawns are free, every further
            # launch (replacement or retry after a failed launch)
            # consumes the respawn budget so a dying pool terminates.
            while pending and len(active) < workers and \
                    (respawns_left > 0 or spawned_total < workers):
                replacement = spawned_total >= workers
                slot = launch_slot()
                if slot is None:
                    respawns_left -= 1
                    if active or respawns_left <= 0:
                        break
                    continue
                if replacement:
                    respawns_left -= 1
                    stats["respawns"] += 1
            if not active:
                # Every slot is gone and none can be launched: fail
                # whatever is left, structured, and finish.
                for index in specs:
                    if index not in results:
                        fail_shard(index, "pool",
                                   "worker pool exhausted its respawn "
                                   "budget", -1, None)
                break

            # Idle slots take the next pending shard, in launch order.
            for slot in [slot for slot in active if slot.idle]:
                if not pending:
                    break
                dispatch(slot, pending.popleft())

            busy = [slot for slot in active if not slot.idle]
            if not busy:
                continue

            select.select([slot.handle.sock for slot in busy], [], [],
                          0.05)
            dead: Dict[_Slot, str] = {}
            for slot in busy:
                try:
                    ingest(slot, slot.handle.drain())
                except TransportError as exc:
                    dead[slot] = str(exc)

            # Timeouts: full-round-trip monotonic clock per shard.
            now = time.monotonic()
            for slot in list(active):
                if slot in dead or slot.idle:
                    continue
                timeout = slot.spec.get("timeout")
                if timeout is None:
                    timeout = default_timeout
                if timeout is None or now - slot.shard_clock <= timeout:
                    continue
                # Final drain before judging: a result already on the
                # wire of a slow link must be recorded as the success
                # it is, not misreported as a timeout.
                try:
                    ingest(slot, slot.handle.drain())
                except TransportError as exc:
                    dead[slot] = str(exc)
                    continue
                if slot.idle:
                    continue
                elapsed = now - slot.shard_clock
                reap(slot, "timeout",
                     f"shard exceeded its {timeout:.3f}s timeout "
                     f"({elapsed:.3f}s round trip) and its worker "
                     "was killed", elapsed, charge_unannounced=True)
                active.remove(slot)

            for slot, message in dead.items():
                reap(slot, "crash", message)
                active.remove(slot)
    finally:
        for slot in active:
            release_slot(slot)
            slot.handle.close()

    stats["per_worker"] = [
        {
            "worker": slot.handle.id,
            "host": slot.host_key,
            "shards": slot.completed,
            "busy_seconds": round(slot.busy_seconds, 4),
        }
        for slot in all_slots
    ]
    shard_results = [results[index] for index in sorted(results)]
    return shard_results, hosts_info, stats
