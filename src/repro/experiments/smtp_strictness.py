"""§7.1 "Protocol violations": sink strictness vs spambot dialects.

"Our spam harvest accounting looked healthy at the connection level
(since many connections ensued), but, upon closer inspection, meager
at the content level (since for some bot families no actual message
body transmission occurred)."  The SMTP sink followed the RFC too
closely; repeated HELO/EHLO greetings and loose address formats never
reached the DATA stage.

The experiment crosses a protocol-clean family (MegaD) and a
dialect-quirky family (Grum: repeated HELOs, missing colons, bare
addresses) with a strict and a lenient sink, measuring both the
connection level (sessions) and the content level (DATA transfers).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.farm import Farm, FarmConfig
from repro.inmates.images import autoinfect_image
from repro.malware.corpus import Sample
from repro.net.smtp import Strictness
from repro.policies.spambot import GrumPolicy, MegadPolicy
from repro.world.builder import ExternalWorld

FAMILIES = ("grum", "megad")
STRICTNESS = (Strictness.STRICT, Strictness.LENIENT)


class StrictnessCell:
    """One (family, strictness) cell of the matrix."""

    def __init__(self, family: str, strictness: Strictness) -> None:
        self.family = family
        self.strictness = strictness
        self.sessions = 0
        self.data_transfers = 0
        self.syntax_errors = 0

    @property
    def content_ratio(self) -> float:
        """DATA transfers per session — the healthy/meager signal."""
        return self.data_transfers / self.sessions if self.sessions else 0.0

    def __repr__(self) -> str:
        return (
            f"<Cell {self.family}/{self.strictness.value}: "
            f"{self.sessions} sessions, {self.data_transfers} transfers>"
        )


def run_cell(family: str, strictness: Strictness,
             duration: float = 600.0, seed: int = 11) -> StrictnessCell:
    farm = Farm(FarmConfig(seed=seed))
    sub = farm.create_subfarm("strictness")
    world = ExternalWorld(farm)
    world.add_standard_victims(domains=2, mailboxes_per_domain=20)
    campaign = world.default_campaign(family, batch_size=15,
                                      send_interval=1.0)
    if family == "megad":
        world.add_megad_cnc(campaign=campaign)
        policy = MegadPolicy()
    else:
        world.add_http_cnc(family, f"{family}-cc.example", campaign,
                           path_prefix=f"/{family}/")
        policy = GrumPolicy()

    sub.add_catchall_sink()
    sink = sub.add_smtp_sink(strictness=strictness)
    inmate = sub.create_inmate(image_factory=autoinfect_image(),
                               policy=policy)
    policy.set_sample(inmate.vlan, inmate.vlan, Sample(family))
    farm.run(until=duration)

    cell = StrictnessCell(family, strictness)
    cell.sessions = sink.sessions_accepted
    cell.data_transfers = sink.data_transfers
    return cell


def strictness_cell_shard(family: str, strictness: str,
                          duration: float = 600.0,
                          seed: int = 11) -> dict:
    """Shard task: one (family, strictness) cell as a JSON-safe dict —
    importable by spawn-started campaign workers."""
    cell = run_cell(family, Strictness(strictness), duration, seed)
    return {
        "family": cell.family,
        "strictness": strictness,
        "sessions": cell.sessions,
        "data_transfers": cell.data_transfers,
        "metrics": {
            "sessions": cell.sessions,
            "data_transfers": cell.data_transfers,
        },
    }


def _cell_from_payload(payload: dict) -> StrictnessCell:
    cell = StrictnessCell(payload["family"],
                          Strictness(payload["strictness"]))
    cell.sessions = payload["sessions"]
    cell.data_transfers = payload["data_transfers"]
    return cell


def run_matrix(duration: float = 600.0, seed: int = 11,
               workers: int = 1, hosts=None
               ) -> Dict[Tuple[str, str], StrictnessCell]:
    """The full family × strictness matrix, one farm per cell.

    Cells are independent whole-farm runs, so they fan out across a
    campaign worker pool; ``workers=1`` (the default, and what tests
    use) runs every cell serially in-process.  Either way the cells
    are built from identical per-shard payloads.
    """
    from repro.parallel import Campaign, run_campaign

    grid = [
        {"family": family, "strictness": strictness.value,
         "duration": duration, "seed": seed}
        for family in FAMILIES for strictness in STRICTNESS
    ]
    campaign = Campaign.config_sweep(
        "smtp-strictness-matrix",
        "repro.experiments.smtp_strictness:strictness_cell_shard",
        grid,
        base_seed=seed,
        labels=[f"{cell['family']}/{cell['strictness']}" for cell in grid],
    )
    result = run_campaign(campaign, workers=workers, hosts=hosts)
    if not result.ok:
        raise RuntimeError(
            f"strictness matrix shards failed: {result.failures}")
    out: Dict[Tuple[str, str], StrictnessCell] = {}
    for payload in result.payloads():
        cell = _cell_from_payload(payload)
        out[(cell.family, cell.strictness.value)] = cell
    return out


def render(matrix: Dict[Tuple[str, str], StrictnessCell]) -> str:
    lines = [
        "SMTP sink strictness vs spambot dialects (§7.1)",
        "",
        f"{'FAMILY':<8} {'SINK':<8} {'SESSIONS':>8} {'DATA XFERS':>10} "
        f"{'CONTENT RATIO':>13}",
        "-" * 54,
    ]
    for (family, strictness), cell in matrix.items():
        lines.append(
            f"{family:<8} {strictness:<8} {cell.sessions:>8} "
            f"{cell.data_transfers:>10} {cell.content_ratio:>13.2f}"
        )
    lines.append("-" * 54)
    lines.append(
        "Connection-level accounting looks healthy everywhere; only the\n"
        "lenient state machine reaches DATA for dialect-quirky bots."
    )
    return "\n".join(lines)
