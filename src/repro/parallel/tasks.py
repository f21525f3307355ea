"""Reference shard tasks: whole-farm runs shaped for campaigns.

A *shard task* is a module-level function a spawn-started worker can
import by name (``"repro.parallel.tasks:streaming_farm_shard"``); it
takes JSON-safe keyword arguments and returns a JSON-safe dict.  The
tasks here are the workloads the parity tests and the experiment
registry's sweeps share; experiments define their own next to the
harness they wrap (see :mod:`repro.experiments.scalability`).

``streaming_farm_shard`` is the canonical one: a complete farm —
gateway, subfarm routers, containment servers, host TCP stacks — under
a streaming workload, returning counters, a telemetry snapshot, and a
determinism digest.  :func:`farm_digest` is that digest's one recipe
(flow logs, counters, upstream trace bytes, the metric surface); the
pinned seed-farm digests (``tests/golden/farm_digests.json``) and the
fault-baseline tests call it rather than spell it out again.

The ``*_shard`` helpers at the bottom exist for failure-mode tests and
pool smoke checks only.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Tuple

from repro.core.policy import AllowAll
from repro.farm import Farm, FarmConfig
from repro.net.addresses import IPv4Address
from repro.net.http import echo
from repro.services.dhcp import DhcpClient

__all__ = [
    "farm_digest",
    "streaming_farm_shard",
    "noop_shard",
    "sleepy_shard",
    "crashing_shard",
    "failing_shard",
]

TARGET_IP = "203.0.113.80"
TARGET_PORT = 80


def _streaming_image(rounds: int, chunk: int = 512):
    """An inmate that opens one connection and ping-pongs ``rounds``
    chunks over it — post-verdict forwarding dominates."""

    def image(host):
        def configured(h):
            def start():
                conn = h.tcp.connect(IPv4Address(TARGET_IP), TARGET_PORT)
                state = {"rounds": 0}

                def on_data(c, data):
                    state["rounds"] += 1
                    if state["rounds"] >= rounds:
                        c.close()
                    else:
                        c.send(b"x" * chunk)

                conn.on_established = lambda c: c.send(b"x" * chunk)
                conn.on_data = on_data

            h.sim.schedule(1.0, start, label="stream-start")

        DhcpClient(host, on_configured=configured).start()

    return image


def farm_digest(farm) -> Tuple[str, dict]:
    """The farm determinism digest, defined once: sha256 over, per
    subfarm in name order, the router counters and flow log, then the
    upstream trace bytes, then the telemetry snapshot minus the
    ``flowtable.*`` instruments (they say nothing about wire
    behaviour, and the tracked digests have never included them).

    Returns ``(hexdigest, snapshot)`` — the folded, stripped snapshot,
    for callers that ship it beside the digest.
    """
    digest = hashlib.sha256()
    for name in sorted(farm.subfarms):
        router = farm.subfarms[name].router
        digest.update(json.dumps(dict(router.counters),
                                 sort_keys=True).encode())
        for entry in router.flow_log:
            digest.update(
                f"{entry.timestamp:.9f}|{entry.vlan}|{entry.verdict}"
                f"|{entry.orig}|{entry.policy}".encode())
    for rec in farm.gateway.upstream_trace.records:
        digest.update(rec.frame.to_bytes())
    snapshot = farm.telemetry_snapshot()
    for family in ("counters", "gauges"):
        snapshot[family] = {k: v for k, v in snapshot[family].items()
                            if not k.startswith("flowtable.")}
    digest.update(json.dumps(snapshot, sort_keys=True).encode())
    return digest.hexdigest(), snapshot


def streaming_farm_shard(seed: int, subfarms: int = 2, inmates: int = 2,
                         rounds: int = 60, duration: float = 120.0,
                         telemetry: bool = True,
                         journal: bool = False) -> dict:
    """One complete farm run: N subfarms of streaming inmates against
    an external echo server, digested deterministically."""
    farm = Farm(FarmConfig(seed=seed, telemetry=telemetry,
                           journal=journal))
    echo(farm.add_external_host("echo", TARGET_IP), TARGET_PORT)
    for index in range(subfarms):
        sub = farm.create_subfarm(f"shard-sub-{index}")
        sub.set_default_policy(AllowAll())
        for _ in range(inmates):
            sub.create_inmate(image_factory=_streaming_image(rounds))
    farm.run(until=duration)

    counters = {name: dict(sub.router.counters)
                for name, sub in farm.subfarms.items()}
    digest, snapshot = farm_digest(farm)
    result = {
        "seed": seed,
        "virtual_seconds": farm.sim.now,
        "metrics": {
            "events": farm.sim.events_processed,
            "flows_created": sum(c.get("flows_created", 0)
                                 for c in counters.values()),
            "packets_relayed": sum(c.get("packets_relayed", 0)
                                   for c in counters.values()),
        },
        "counters": counters,
        "telemetry": snapshot,
        "digest": digest,
    }
    if journal:
        # The journal rides alongside the determinism digest, never
        # inside it: journal=True must not change "digest".
        from repro.obs.journal import journal_digest

        journal_snap = farm.journal_snapshot()
        result["journal"] = journal_snap
        result["journal_digest"] = journal_digest(journal_snap)
    return result


# ----------------------------------------------------------------------
# Failure-mode / smoke tasks (tests and pool diagnostics only)
# ----------------------------------------------------------------------
def noop_shard(seed: int, value: int = 0) -> dict:
    """Instant success — pool plumbing smoke checks."""
    return {"seed": seed, "value": value,
            "digest": hashlib.sha256(f"{seed}:{value}".encode())
            .hexdigest()}


def sleepy_shard(seed: int, wall_seconds: float = 60.0) -> dict:
    """Burn real wall-clock time — shard-timeout tests."""
    time.sleep(wall_seconds)
    return {"seed": seed, "slept": wall_seconds}


def crashing_shard(seed: int, exitcode: int = 134) -> dict:
    """Kill the worker process outright (no exception to catch) —
    crash-isolation tests."""
    import os

    os._exit(exitcode)


def failing_shard(seed: int, message: str = "boom") -> dict:
    """Raise inside the task — structured in-task error tests."""
    raise RuntimeError(message)
