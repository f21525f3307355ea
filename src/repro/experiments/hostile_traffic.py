"""Hostile trunk traffic × malice policy: what does the barrier cost?

GQ's gateway must assume inmates are adversarial all the way down to
the framing layer (docs/HARDENING.md).  This experiment runs the same
benign streaming workload while a deterministic hostile-frame stream
(:func:`repro.fuzz.generators.hostile_frame`) hits the subfarm trunk,
once per malice policy:

* ``isolate`` — malformed frames are dropped, counted, quarantined;
  the offending flow (when attributable) is evicted.  The benign
  workload must be unaffected.
* ``fail-stop`` — the first malformed frame latches the subfarm shut;
  everything after it is dropped unparsed.  Benign throughput collapses
  by design (the conservative prison posture).
* ``count`` — accounting only.

The run digest covers the barrier summary plus router counters, so
identical seeds reproduce identical cells (asserted by tests).
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, Iterable, Optional

from repro.core.policy import AllowAll
from repro.farm import Farm, FarmConfig
from repro.fuzz.generators import hostile_frame
from repro.gateway.barrier import POLICIES
from repro.net.http import echo
from repro.parallel.tasks import TARGET_IP, TARGET_PORT, _streaming_image

__all__ = ["run_cell", "run_hostile_traffic"]


def run_cell(policy: str, seed: int = 11, frames: int = 200,
             inmates: int = 2, duration: float = 120.0) -> dict:
    """One policy cell: benign streaming workload + hostile frames."""
    rng = random.Random(seed ^ 0xBADF)
    farm = Farm(FarmConfig(seed=seed, malice_policy=policy))
    echo(farm.add_external_host("echo", TARGET_IP), TARGET_PORT)
    sub = farm.create_subfarm("hostile")
    sub.set_default_policy(AllowAll())
    for _ in range(inmates):
        sub.create_inmate(image_factory=_streaming_image(20))

    # Hostile frames arrive throughout the middle of the run, so the
    # benign workload is already established when the abuse starts.
    router = sub.router
    start, stop = duration * 0.2, duration * 0.8
    for index in range(frames):
        when = start + (stop - start) * index / max(1, frames - 1)
        data = hostile_frame(rng)
        vlan = rng.randrange(1, 31)
        farm.sim.schedule(when,
                          lambda v=vlan, d=data: router.ingest_wire(v, d),
                          label="hostile-frame")
    farm.run(until=duration)

    counters = dict(sub.router.counters)
    barrier = router.barrier.summary()
    digest = hashlib.sha256()
    digest.update(json.dumps(counters, sort_keys=True).encode())
    digest.update(json.dumps(barrier, sort_keys=True).encode())
    return {
        "policy": policy,
        "seed": seed,
        "frames": frames,
        "flows_created": counters.get("flows_created", 0),
        "packets_relayed": counters.get("packets_relayed", 0),
        "barrier": barrier,
        "digest": digest.hexdigest(),
    }


def run_hostile_traffic(seed: int = 11, frames: int = 200,
                        inmates: int = 2, duration: float = 120.0,
                        policies: Optional[Iterable[str]] = None) -> dict:
    """The full policy sweep plus cross-policy sanity findings."""
    cells: Dict[str, dict] = {}
    for policy in (policies or POLICIES):
        cells[policy] = run_cell(policy, seed=seed, frames=frames,
                                 inmates=inmates, duration=duration)

    findings = []
    isolate = cells.get("isolate")
    failstop = cells.get("fail-stop")
    if isolate and not isolate["barrier"]["parse_errors"]:
        findings.append("isolate cell saw no malformed frames")
    if isolate and failstop:
        if not failstop["barrier"]["fail_stopped"]:
            findings.append("fail-stop cell never latched")
        if failstop["packets_relayed"] >= isolate["packets_relayed"]:
            findings.append(
                "fail-stop relayed no fewer packets than isolate — "
                "the latch is not actually stopping traffic")
    return {
        "experiment": "hostile-traffic",
        "cells": cells,
        "findings": findings,
    }
