"""One farm workload, built then run: the unit both ``worker.py`` and
the campaign's shards execute.

:class:`FarmRun` builds in its constructor (that is the set-up a user
pays, and what ``setup_s`` times) with the span recorder installed
first when tracing, and :meth:`FarmRun.execute` runs the farm in
calibrated slices (:mod:`timing`), checks the outputs and digests the
wire-level evidence.
"""

from __future__ import annotations

import hashlib
import json
import resource

import checks
import layers
import timing
import tracer
import workloads

SHARDS = 12
SHARD_TASK = "farmrun:churn_shard"
SHARD_SHAPE = {"subfarms": 3, "inmates_per": 4, "interval": 2.0,
               "virtual_per_second": 21.0}
SHARD_SLICES = 8


def peak_rss_mb() -> float:
    """High-water RSS of this process and its reaped children (Linux
    reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def sim_digest(farm) -> str:
    """sha256 over wire-level evidence — router counters, flow logs,
    upstream trace bytes (the shape of
    ``bench_hotpath.run_farm_flow_digest``, over every subfarm)."""
    digest = hashlib.sha256()
    for name in sorted(farm.subfarms):
        router = farm.subfarms[name].router
        digest.update(json.dumps(dict(router.counters),
                                 sort_keys=True).encode())
        for entry in router.flow_log:
            digest.update(
                f"{entry.timestamp:.9f}|{entry.vlan}|{entry.verdict}"
                f"|{entry.orig}|{entry.policy}".encode())
    for record in farm.gateway.upstream_trace.records:
        digest.update(record.frame.to_bytes())
    return digest.hexdigest()


def exact_counts(farm) -> dict:
    routers = [sub.router for sub in farm.subfarms.values()]
    return {
        "events": farm.sim.events_processed,
        "packets_relayed": sum(r.counters["packets_relayed"]
                               for r in routers),
        "flows_created": sum(r.counters["flows_created"] for r in routers),
        "flows_logged": sum(len(r.flow_log) for r in routers),
        "sim_digest": sim_digest(farm),
    }


class FarmRun:
    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool = False, **shape) -> None:
        self.workload = workload
        self.rec = tracer.Recorder() if trace else None
        self._undo = tracer.install(self.rec) if trace else []
        rec = self.rec
        wrap = (lambda label, fn: rec.wrap("app", label, fn)) \
            if trace else workloads.no_wrap
        try:
            self.built = workloads.build(workload, seed, seconds, wrap,
                                         **shape)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        tracer.uninstall(self._undo)
        self._undo = []

    def execute(self, slice_count: int) -> dict:
        """The timed region, then everything read off the finished
        farm; JSON-safe."""
        built, rec = self.built, self.rec
        farm = built.farm
        exported = {}

        def export() -> None:
            # What an operator does with an observed run: export it.
            exported["telemetry"] = farm.telemetry_snapshot(
                include_traces=False)
            exported["journal_digest"] = farm.journal.digest()

        try:
            if rec:
                rec.enabled = True
            slices = timing.run_sliced(built, slice_count)
            if self.workload == "scan_journaled":
                slices.timed(built.app, export)
            if rec:
                rec.enabled = False
        finally:
            self.close()
        rss = peak_rss_mb()

        exact = exact_counts(farm)
        if exported:
            exact["journal_digest"] = exported["journal_digest"]
        out = {
            "slices": slices.to_dict(),
            "peak_rss_mb": rss,
            "payload_bytes": built.delivered_bytes(),
            "flows": exact["flows_logged"],
            "checks": checks.check_farm(self.workload, built),
            "exact": exact,
        }
        if rec:
            out["ledger"] = rec.to_dict()
            out["raw"] = layers.farm_raw_counts(
                farm, built.app, rec, exported.get("telemetry"))
            out["chrome_trace"] = rec.chrome_trace()
        return out


# ----------------------------------------------------------------------
# campaign_sweep
# ----------------------------------------------------------------------
def churn_shard(seed: int, seconds: float, trace: bool = False) -> dict:
    """Shard task: one 3x4-inmate ``flow_churn`` farm, digested.

    Runs in a spawn-started campaign worker, which imports this module
    by name (the ledger directory rides along on ``sys.path``).  Wall
    clock readings travel beside ``digest`` — the only thing the
    campaign digest folds — so they never perturb determinism.
    """
    run = FarmRun("flow_churn", seed, seconds, trace,
                  **SHARD_SHAPE).execute(SHARD_SLICES)
    run.pop("chrome_trace", None)
    exact = run["exact"]
    return {
        "seed": seed,
        "digest": exact["sim_digest"],
        "metrics": {key: value for key, value in exact.items()
                    if key != "sim_digest"},
        "run": run,
    }


def build_campaign(seed: int, seconds: float, trace: bool = False):
    from repro.parallel import Campaign

    return Campaign.seed_sweep(
        "ledger-campaign", SHARD_TASK,
        params={"seconds": seconds, "trace": trace},
        count=SHARDS, base_seed=seed)
