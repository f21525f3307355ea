"""The one table of what ``python -m repro.experiments`` regenerates.

:data:`ARTEFACTS` has a row per paper artefact — the 18 files tracked
under ``benchmarks/output/`` — and a row per sweep (a campaign whose
summary is JSON).  A row is its id, where the paper (or ``docs/``)
reports it, ``run(**params) -> result``, ``render(result) -> str`` and
the parameter defaults that reproduce the tracked bytes.  The CLI
builds each subcommand's parser from the row's ``params``, so a
subcommand accepts exactly what its ``run`` reads.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.experiments import (
    classification,
    containment_tradeoff,
    error_codes,
    fault_matrix,
    figure1,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    flow_modes,
    handoff_ablation,
    hostile_traffic,
    policy_iteration,
    rawiron_cycle,
    scalability,
    smtp_strictness,
    storm_infiltration,
    waledac_fidelity,
    worm_capture,
)

__all__ = ["ARTEFACTS", "Artefact", "Param", "parse_seeds"]


def parse_seeds(text: str) -> List[int]:
    """``"0..7"`` (inclusive) or ``"1,5,9"`` or a single ``"4"``."""
    text = text.strip()
    if ".." in text:
        low, _, high = text.partition("..")
        first, last = int(low), int(high)
        if last < first:
            raise ValueError(f"empty seed range: {text!r}")
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",") if part.strip()]


class Param(NamedTuple):
    """A parameter defaulting to ``None``, whose type and meaning the
    default cannot show.  Every other parameter is its plain default:
    the value's type parses the flag, ``False`` makes it a switch."""

    type: Callable[[str], Any]
    metavar: str
    help: str


HOSTS = Param(str, "H:P,H:P",
              "worker-agent endpoints (python -m repro.parallel.worker); "
              "shards dispatch over TCP, not to the local pool")
SEEDS = Param(parse_seeds, "A..B", "inclusive seed range or comma list")
TOPOLOGY = Param(str, "FILE",
                 "compile a FarmTopology JSON file into a placement and "
                 "derive the campaign and the agent endpoints from it")


class Artefact(NamedTuple):
    id: str
    paper: str
    help: str
    run: Callable[..., Any]
    render: Callable[[Any], str]
    params: Dict[str, Any]
    #: A sweep renders a JSON summary; anything else renders the text
    #: tracked as ``benchmarks/output/<filename>``.
    sweep: bool = False
    #: ``violations(result)`` non-empty makes the command exit 1.
    violations: Optional[Callable[[Any], List[str]]] = None

    @property
    def filename(self) -> str:
        if self.sweep:
            return f"{self.id}.json"
        return self.id.replace("-", "_") + ".txt"

    def defaults(self) -> Dict[str, Any]:
        return {name: None if isinstance(default, Param) else default
                for name, default in self.params.items()}


# ----------------------------------------------------------------------
# Sweeps: campaigns summarised as JSON
# ----------------------------------------------------------------------
def _json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True)


def _campaign_json(result) -> str:
    summary = result.to_dict()
    # Per-shard telemetry/journal snapshots make the summary unwieldy;
    # the merged labelled views (``merged.telemetry``, ``merged.journal``
    # — both readable by ``python -m repro.obs``) stay.
    for shard in summary["shards"]:
        if shard["payload"]:
            shard["payload"].pop("telemetry", None)
            shard["payload"].pop("journal", None)
    return _json(summary)


def _streaming_farm(workers, hosts, topology, seeds, count, seed, duration,
                    subfarms, inmates_per, journal):
    from repro.parallel import Campaign, run_campaign
    from repro.parallel.topology import FarmTopology

    task = "repro.parallel.tasks:streaming_farm_shard"
    # journal=True turns shard journaling on so the campaign merge has
    # journals to fold (determinism digests are unchanged either way).
    params = {"duration": duration, "journal": journal}
    if topology:
        with open(topology, "r", encoding="utf-8") as handle:
            placement = FarmTopology.from_dict(json.load(handle)).compile()
        campaign = placement.campaign(task, params=params, base_seed=seed)
        # The compiled placement names the worker agents; an explicit
        # --hosts still wins (e.g. re-running a placement locally).
        hosts = hosts or (placement.endpoints() or None)
    else:
        campaign = Campaign.seed_sweep(
            "streaming-farm-sweep", task,
            params=dict(params, subfarms=subfarms, inmates=inmates_per),
            seeds=seeds, count=None if seeds is not None else count,
            base_seed=seed)
    return run_campaign(campaign, workers=workers, hosts=hosts)


_SWEEP_SHAPE = {"workers": 1, "hosts": HOSTS, "seeds": SEEDS, "count": 8,
                "subfarms": 3, "inmates_per": 4}

_ROWS = (
    # ---- the paper's table and figures --------------------------------
    Artefact("table1-worms", "Table 1",
             "66 worm capture runs: events, connections, incubation",
             worm_capture.run_table1, worm_capture.render,
             {"inmates": 4, "duration": 3600.0, "seed": 100}),
    Artefact("fig1-architecture", "Figure 1",
             "the overall architecture, constructed",
             figure1.run_figure1, figure1.render,
             {"seed": 1, "duration": 90.0}),
    Artefact("fig2-modes", "Figure 2",
             "the six flow-manipulation modes, observed end to end",
             flow_modes.observe_all_modes, flow_modes.render,
             {"duration": 120.0, "seed": 2}),
    Artefact("fig3-subfarms", "Figure 3",
             "three subfarms, three policies, one gateway",
             figure3.run_figure3, figure3.render,
             {"seed": 19, "duration": 120.0}),
    Artefact("fig4-shim-layout", "Figure 4",
             "the shim protocol messages, byte for byte",
             figure4.run_figure4, figure4.render, {}),
    Artefact("fig5-rewrite-ladder", "Figure 5",
             "the REWRITE packet ladder from a live run",
             figure5.run_figure5, figure5.render,
             {"seed": 9, "duration": 120.0}),
    Artefact("fig6-config", "Figure 6",
             "the containment configuration file, parsed and applied",
             figure6.run_figure6, figure6.render, {}),
    # --duration 86400 --send-interval 4.0 is the full simulated day.
    Artefact("fig7-report", "Figure 7",
             "the Botfarm activity report",
             figure7.run_figure7, attrgetter("rendered"),
             {"duration": 1200.0, "seed": 7, "drop_probability": 0.2,
              "send_interval": 0.5}),
    # ---- the case studies and design choices --------------------------
    Artefact("policy-iteration", "§3",
             "iterative default-deny policy development",
             policy_iteration.develop_families, policy_iteration.render,
             {"duration": 400.0, "seed": 31}),
    Artefact("containment-tradeoff", "§3/§8",
             "behaviour-vs-harm regimes over the mixed population",
             containment_tradeoff.run_all_regimes,
             containment_tradeoff.render,
             {"duration": 900.0, "seed": 77, "workers": 1, "hosts": HOSTS}),
    Artefact("ablation-handoff", "§5.4",
             "endpoint handoff vs containment server in the path",
             handoff_ablation.run_ablation, handoff_ablation.render,
             {"seed": 33, "fetches": 8, "duration": 600.0}),
    Artefact("rawiron", "§6.4",
             "raw-iron reimaging cycle timings",
             rawiron_cycle.run_comparison, rawiron_cycle.render,
             {"machines": 4}),
    Artefact("classification", "§7.1",
             "fingerprint-based batch classification of a sample corpus",
             classification.run_study, classification.render,
             {"corpus_size": 120, "executions": 10, "duration": 150.0}),
    Artefact("error-codes", "§7.1",
             "decoding delivery-report error codes by live experiment",
             error_codes.run_error_code_study, error_codes.render,
             {"duration": 250.0, "seed": 141}),
    Artefact("smtp-strictness", "§7.1",
             "sink strictness x spambot dialect matrix",
             smtp_strictness.run_matrix, smtp_strictness.render,
             {"duration": 600.0, "seed": 11, "workers": 1, "hosts": HOSTS}),
    Artefact("storm-iframe", "§7.1",
             "Storm proxy bots under a tight and a loose policy",
             storm_infiltration.run_both, storm_infiltration.render,
             {"duration": 900.0, "seed": 2008}),
    Artefact("waledac-fidelity", "§7.1",
             "Waledac: test message, plain sink, banner grabbing",
             waledac_fidelity.run_all, waledac_fidelity.render,
             {"duration": 900.0, "seed": 2009}),
    Artefact("scalability", "§7.2",
             "VLAN ceiling, containment-server cluster, gateway load",
             scalability.run_scalability, scalability.render,
             {"duration": 200.0}),
    # ---- sweeps -------------------------------------------------------
    Artefact("gateway-load-sweep", "§7.2",
             "seed sweep of gateway-load farm runs",
             scalability.run_gateway_load_sweep, _campaign_json,
             dict(_SWEEP_SHAPE, seed=6, duration=120.0), sweep=True),
    Artefact("streaming-farm", "docs/PARALLELISM.md",
             "seed sweep of streaming whole-farm runs (the parallel "
             "benchmark workload)",
             _streaming_farm, _campaign_json,
             dict(_SWEEP_SHAPE, topology=TOPOLOGY, seed=11, duration=120.0,
                  journal=False), sweep=True),
    Artefact("fault-matrix", "docs/RESILIENCE.md",
             "chaos scenarios x seeds over resilient farm runs; --quick "
             "is the crash+partition+hang smoke with a determinism replay",
             fault_matrix.run, _json,
             {"quick": False, "workers": 1, "hosts": HOSTS, "seeds": SEEDS,
              "seed": 11, "duration": 120.0},
             sweep=True, violations=lambda summary: summary["violations"]),
    Artefact("hostile-traffic", "docs/HARDENING.md",
             "malice-policy sweep under a deterministic hostile-frame "
             "stream",
             hostile_traffic.run_hostile_traffic, _json,
             {"seed": 11, "duration": 120.0}, sweep=True),
)

ARTEFACTS: Dict[str, Artefact] = {row.id: row for row in _ROWS}
