"""The sharded campaign runner: an adaptive scheduler over pluggable
worker transports.

Design (mirrors the farm itself: independent habitats, one merge
point):

* **Transport-agnostic.**  The scheduler talks to
  :class:`repro.parallel.transport.WorkerHandle` slots.
  ``LocalTransport`` is the warm spawn-based process pool;
  ``SocketTransport`` reaches ``python -m repro.parallel.worker`` host
  agents over length-prefixed JSON frames (``hosts=`` or an explicit
  ``transport=``).  Digests are byte-identical across transports
  because the JSON round trip has been the wire contract since the
  pool existed.
* **Work stealing.**  The one scheduler keeps a shared shard queue
  and dispatches a single shard per idle slot: fast workers
  automatically drain the work a slow host would otherwise straggle.
  Per-worker EWMA shard-cost estimates feed a deficit counter
  (faster-than-average workers accumulate first claim on the queue)
  and, once the queue is dry, **speculative re-dispatch**: a tail
  shard that has been running far beyond its worker's estimate is
  duplicated onto an idle slot and the first completion wins —
  results are unchanged because shards are deterministic, so the
  twin's payload is byte-identical.  (The contiguous pre-partition it
  replaced is recorded as a dated table in docs/PARALLELISM.md.)
* **Crash isolation.**  A worker announces each shard before executing
  it, so when a slot dies — crash, OOM-kill, or the scheduler
  enforcing a shard timeout — the master knows exactly which shard was
  in flight: that shard fails with a structured error (unless a
  speculative twin is still running it), a shard it had not yet
  announced is requeued, and a replacement slot is launched under a
  bounded respawn budget.  A dead worker fails its shard, never the
  campaign.
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
* **Serial fallback.**  ``workers=1`` (or 0) with no transport runs
  every shard in-process through the *same* execution function workers
  use (:func:`repro.parallel.worker.execute_spec`) — no subprocess, no
  pipes — so tests stay hermetic and digests comparable.

Wall-clock timeouts are only enforceable when shards run in worker
slots; the serial path documents rather than enforces them.
"""

from __future__ import annotations

import socket as socket_module
import time
import warnings
from collections import deque
from typing import Dict, List, Optional

from repro.parallel.campaign import Campaign, ShardSpec
from repro.parallel.merge import CampaignResult, merge_results
from repro.parallel.worker import execute_spec, host_info

__all__ = [
    "ShardResult",
    "run_campaign",
]

# EWMA smoothing for per-worker shard-cost estimates.
EWMA_ALPHA = 0.4
# A tail shard becomes a speculation candidate once it has run this
# many times its worker's estimated cost (and at least the floor).
SPECULATION_FACTOR = 2.0
SPECULATION_FLOOR_SECONDS = 0.2


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
                 max_respawns: Optional[int] = None,
                 fault_plan=None,
                 transport=None,
                 hosts=None,
                 scheduler: str = "steal",
                 speculate: bool = True) -> CampaignResult:
    """Run every shard of ``campaign`` and merge deterministically.

    ``workers <= 1`` with no transport is the hermetic serial fallback
    (same execution function, no subprocesses).  ``hosts`` (a list of
    ``"host:port"`` agent endpoints, or one comma-separated string)
    selects :class:`~repro.parallel.transport.SocketTransport`; an
    explicit ``transport=`` overrides both.  ``scheduler`` accepts
    only ``"steal"`` (adaptive work stealing, the one scheduler there
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
    owns_transport = False
    if transport is None and hosts:
        from repro.parallel.transport import SocketTransport

        transport = SocketTransport(hosts)
        owns_transport = True
    if transport is None and (workers <= 1 or len(campaign) <= 1):
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
        if transport is None:
            from repro.parallel.transport import LocalTransport

            transport = LocalTransport()
            owns_transport = True
        try:
            shard_results, hosts_info, sched_stats = _run_scheduled(
                campaign, max(1, workers), transport,
                default_timeout=default_timeout,
                max_respawns=max_respawns, overlay=overlay,
                speculate=speculate)
        finally:
            if owns_transport:
                transport.close()
        effective_workers = max(1, workers)
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

    __slots__ = ("handle", "spec", "finished", "current", "shard_clock",
                 "ewma", "deficit", "completed", "busy_seconds",
                 "speculative", "host_key")

    def __init__(self, handle) -> None:
        self.handle = handle
        self.spec: Optional[dict] = None         # shard last dispatched
        self.finished: bool = False              # ... and reported done
        self.current: Optional[int] = None       # last announced shard
        self.shard_clock: float = 0.0            # monotonic, round-trip
        self.ewma: Optional[float] = None        # est. shard cost (s)
        self.deficit: float = 0.0
        self.completed: int = 0
        self.busy_seconds: float = 0.0
        self.speculative: bool = False           # current dispatch a twin
        self.host_key: Optional[str] = None      # set by the ready frame

    @property
    def idle(self) -> bool:
        return self.spec is None

    def next_pending(self) -> Optional[dict]:
        """The dispatched spec while it is still executing.  This is
        what a timeout or a death is charged against — it does not
        rely on the ``start`` announcement having crossed a slow link
        yet."""
        return None if self.finished else self.spec


def _run_scheduled(campaign: Campaign, workers: int, transport,
                   default_timeout: Optional[float],
                   max_respawns: Optional[int],
                   overlay: Dict[int, dict],
                   speculate: bool):
    from multiprocessing.connection import wait as connection_wait

    from repro.parallel.transport import TransportError

    specs: Dict[int, ShardSpec] = {s.index: s for s in campaign}
    total = len(specs)
    workers = min(workers, total)
    if max_respawns is None:
        max_respawns = total  # every shard may kill at most one worker

    ordered = _spec_dicts(campaign, overlay)
    pending: deque = deque(ordered)

    results: Dict[int, ShardResult] = {}
    inflight: Dict[int, set] = {}       # index -> slots running it
    speculated: set = set()             # indexes already twinned once
    live_per_host: Dict[str, int] = {}
    hosts_info: Dict[str, dict] = {}
    stats = {
        "mode": "steal",
        "transport": transport.kind,
        "workers": workers,
        "dispatches": 0,
        "requeues": 0,
        "respawns": 0,
        "speculations": 0,
        "speculation_wins": 0,
        "stale_kills": 0,
    }
    active: List[_Slot] = []
    all_slots: List[_Slot] = []
    spawned_total = 0
    respawns_left = max_respawns

    # ------------------------------------------------------------------
    def fail_shard(index: int, kind: str, message: str,
                   worker_id: int, host: Optional[str],
                   seconds: float = 0.0) -> None:
        spec = specs[index]
        results[index] = ShardResult(
            index, spec.label, False, None,
            {"kind": kind, "message": message}, seconds,
            worker=worker_id, host=host)

    def mean_cost() -> Optional[float]:
        known = [s.ewma for s in all_slots if s.ewma is not None]
        return sum(known) / len(known) if known else None

    def record_ready(slot: _Slot, info: dict) -> None:
        slot.handle.info = info
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
        slot.finished = True
        slot.current = None
        now = time.monotonic()
        round_trip = now - slot.shard_clock
        slot.shard_clock = now
        slot.busy_seconds += round_trip
        cost = result.get("seconds") or round_trip
        slot.ewma = cost if slot.ewma is None \
            else EWMA_ALPHA * cost + (1.0 - EWMA_ALPHA) * slot.ewma
        slot.completed += 1
        mean = mean_cost()
        if mean is not None and slot.ewma is not None:
            slot.deficit += max(0.0, mean - slot.ewma)
        runners = inflight.get(index)
        if runners is not None:
            runners.discard(slot)
        if slot.host_key and slot.host_key in hosts_info:
            hosts_info[slot.host_key]["shards"] += 1
        if index not in results:
            results[index] = ShardResult(
                index, specs[index].label, result["ok"],
                result["payload"], result["error"], result["seconds"],
                worker=slot.handle.id, host=slot.host_key)
            if slot.speculative:
                stats["speculation_wins"] += 1

    def ingest(slot: _Slot, messages) -> None:
        for message in messages:
            tag = message[0]
            if tag == "ready":
                record_ready(slot, message[1])
            elif tag == "start":
                slot.current = message[1]
            elif tag == "done":
                record_done(slot, message[1], message[2])
            elif tag == "idle":
                slot.spec = None
                slot.current = None
                slot.speculative = False

    def release_slot(slot: _Slot) -> None:
        if slot.host_key:
            live_per_host[slot.host_key] = max(
                0, live_per_host.get(slot.host_key, 1) - 1)

    def reap(slot: _Slot, kind: Optional[str], message: str,
             elapsed: float = 0.0,
             charge_unannounced: bool = False) -> None:
        """A slot died (crash) or was killed (timeout/stale): fail its
        in-flight shard unless a twin still runs it, or requeue it.

        A crash only *charges* the shard the worker had announced
        (``start``) — a slot that dies before announcing its shard
        gets it requeued.  Timeouts pass ``charge_unannounced=True``:
        the round-trip clock covers dispatch itself, so an unannounced
        shard that blew its deadline is a timeout, not a requeue.
        """
        failed = slot.next_pending()
        if slot.spec is not None:
            runners = inflight.get(slot.spec["index"])
            if runners is not None:
                runners.discard(slot)
        if failed is not None:
            index = failed["index"]
            orphaned = index not in results and not inflight.get(index)
            if kind is not None and (charge_unannounced
                                     or slot.current == index):
                if orphaned:
                    fail_shard(index, kind, message, slot.handle.id,
                               slot.host_key, seconds=elapsed)
            elif orphaned:
                pending.appendleft(failed)
                stats["requeues"] += 1
        slot.spec = None
        slot.current = None
        release_slot(slot)
        slot.handle.kill()
        slot.handle.close()

    def dispatch(slot: _Slot, spec: dict,
                 speculative: bool = False) -> bool:
        if spec["index"] in results:
            return False
        slot.spec = spec
        slot.finished = False
        slot.current = None
        slot.speculative = speculative
        # Round-trip clock starts at serialization time (satellite
        # contract: serialize → dispatch → result on one monotonic
        # clock).
        slot.shard_clock = time.monotonic()
        try:
            slot.handle.send(("run", [spec]))
        except TransportError as exc:
            reap(slot, "crash", str(exc))
            if slot in active:
                active.remove(slot)
            return False
        inflight.setdefault(spec["index"], set()).add(slot)
        stats["dispatches"] += 1
        if speculative:
            stats["speculations"] += 1
        return True

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

    def idle_slots_by_priority() -> List[_Slot]:
        """Deficit-based dispatch order: workers whose EWMA beats the
        pool mean accumulated deficit — they get first claim, so fast
        hosts drain the queue (and stragglers' leftovers) first."""
        return sorted((s for s in active if s.idle),
                      key=lambda s: (-s.deficit, s.ewma or 0.0,
                                     s.handle.id))

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

            # Dispatch work to idle slots, fastest-estimate first.
            for slot in idle_slots_by_priority():
                if not pending:
                    break
                dispatch(slot, pending.popleft())

            # Tail speculation: queue dry, idle capacity, and a shard
            # far beyond its worker's cost estimate still in flight.
            if speculate and not pending and len(results) < total:
                _speculate_tail(active, inflight, results, specs,
                                speculated, dispatch, mean_cost)

            if len(results) >= total:
                break

            busy = [slot for slot in active if not slot.idle]
            if not busy:
                if not pending:
                    # Defensive refill: no runner owns the remainder
                    # (e.g. every twin died) — requeue what is missing.
                    missing = [spec for spec in ordered
                               if spec["index"] not in results
                               and not inflight.get(spec["index"])]
                    pending.extend(missing)
                    if not missing:
                        continue
                continue

            connection_wait([slot.handle.waitable for slot in busy],
                            timeout=0.05)
            dead: List[_Slot] = []
            for slot in busy:
                try:
                    ingest(slot, slot.handle.drain())
                except TransportError as exc:
                    dead.append((slot, str(exc)))

            # Timeouts: full-round-trip monotonic clock per shard.
            now = time.monotonic()
            for slot in list(active):
                if any(slot is candidate for candidate, _ in dead):
                    continue
                spec = slot.next_pending()
                if spec is None:
                    # A slot that silently died between shards.
                    if not slot.idle and not slot.handle.alive():
                        dead.append((slot, "worker died between shards"))
                    continue
                timeout = spec.get("timeout")
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
                    dead.append((slot, str(exc)))
                    continue
                spec = slot.next_pending()
                if spec is None or now - slot.shard_clock <= timeout:
                    continue
                elapsed = now - slot.shard_clock
                if spec["index"] in results:
                    # Stale speculative twin overstaying: reclaim the
                    # slot without failing anything.
                    stats["stale_kills"] += 1
                    reap(slot, None, "stale twin reclaimed", elapsed)
                else:
                    reap(slot, "timeout",
                         f"shard exceeded its {timeout:.3f}s timeout "
                         f"({elapsed:.3f}s round trip) and its worker "
                         "was killed", elapsed, charge_unannounced=True)
                active.remove(slot)

            for slot, message in dead:
                if slot not in active:
                    continue
                reap(slot, "crash", message)
                active.remove(slot)
    finally:
        for slot in active:
            try:
                slot.handle.send(("stop",))
            except Exception:  # noqa: BLE001 — already dying
                pass
        for slot in active:
            release_slot(slot)
            slot.handle.close()

    stats["per_worker"] = [
        {
            "worker": slot.handle.id,
            "host": slot.host_key,
            "shards": slot.completed,
            "busy_seconds": round(slot.busy_seconds, 4),
            "ewma_seconds": round(slot.ewma, 6)
            if slot.ewma is not None else None,
        }
        for slot in all_slots
    ]
    shard_results = [results[index] for index in sorted(results)]
    return shard_results, hosts_info, stats


def _speculate_tail(active, inflight, results, specs, speculated,
                    dispatch, mean_cost) -> None:
    """Duplicate the most-overdue tail shard onto an idle slot."""
    idle = [slot for slot in active if slot.idle]
    if not idle:
        return
    now = time.monotonic()
    mean = mean_cost()
    candidates = []
    for index, runners in inflight.items():
        if index in results or index in speculated or not runners:
            continue
        if len(runners) > 1:
            continue
        (runner,) = runners
        spec = runner.next_pending()
        if spec is None or spec["index"] != index:
            continue
        if spec.get("fault") is not None:
            continue  # deliberately-faulted shards are not re-run
        estimate = runner.ewma if runner.ewma is not None else mean
        if estimate is None:
            continue  # no cost baseline anywhere yet
        elapsed = now - runner.shard_clock
        threshold = max(SPECULATION_FLOOR_SECONDS,
                        SPECULATION_FACTOR * estimate)
        if elapsed > threshold:
            candidates.append((elapsed / max(estimate, 1e-9),
                               index, spec))
    candidates.sort(key=lambda item: -item[0])
    for slot, (_, index, spec) in zip(idle, candidates):
        if dispatch(slot, dict(spec), speculative=True):
            speculated.add(index)
