"""The containment trade-off: behaviour elicited vs harm inflicted.

The crux of §3 and §8: unconstrained execution maximizes both insight
and harm; full isolation minimizes both; static rule sets (Botlab)
land awkwardly in between — leaking harm on unprivileged ports while
killing C&C on privileged ones; GQ's per-family policies elicit
near-unconstrained behaviour at near-zero harm.

Workload: a mixed population — Grum, Rustock, MegaD spambots and a
clickbot — running for the same duration under each regime, against
the same external universe.
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.policies import (
    BotlabStaticPolicy,
    FullIsolationPolicy,
    UnconstrainedPolicy,
)
from repro.core.policy import ContainmentPolicy
from repro.farm import Farm, FarmConfig
from repro.inmates.images import autoinfect_image
from repro.malware.corpus import Sample
from repro.policies.clickbot import ClickbotPolicy
from repro.policies.spambot import GrumPolicy, MegadPolicy, RustockPolicy
from repro.world.builder import ExternalWorld

REGIMES = ("unconstrained", "isolation", "botlab-static", "gq")

FAMILIES = ("grum", "rustock", "megad", "clickbot")

GQ_POLICIES = {
    "grum": GrumPolicy,
    "rustock": RustockPolicy,
    "megad": MegadPolicy,
    "clickbot": ClickbotPolicy,
}


class RegimeResult:
    """Outcome of one regime over the mixed population."""

    def __init__(self, regime: str) -> None:
        self.regime = regime
        # Behaviour elicited (what the analyst learns):
        self.cnc_fetches = 0
        self.spam_sessions_attempted = 0
        self.spam_harvested = 0           # messages in OUR sink
        self.clicks_attempted = 0
        self.families_active = 0
        # Harm inflicted (what the outside world suffers):
        self.spam_delivered_outside = 0
        self.clicks_on_real_publishers = 0
        self.inmates_blacklisted = 0

    @property
    def behaviour_score(self) -> int:
        """Coarse insight metric: activity observable by the analyst."""
        return (self.cnc_fetches + self.spam_sessions_attempted
                + self.clicks_attempted)

    @property
    def harm_score(self) -> int:
        return (self.spam_delivered_outside
                + self.clicks_on_real_publishers
                + self.inmates_blacklisted)

    def __repr__(self) -> str:
        return (
            f"<Regime {self.regime}: behaviour={self.behaviour_score} "
            f"harm={self.harm_score} harvested={self.spam_harvested}>"
        )


def _policy_for(regime: str, family: str) -> ContainmentPolicy:
    if regime == "unconstrained":
        return UnconstrainedPolicy()
    if regime == "isolation":
        return FullIsolationPolicy()
    if regime == "botlab-static":
        return BotlabStaticPolicy()
    return GQ_POLICIES[family]()


def run_regime(regime: str, duration: float = 900.0,
               seed: int = 77) -> RegimeResult:
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}")
    farm = Farm(FarmConfig(seed=seed))
    sub = farm.create_subfarm("tradeoff")
    world = ExternalWorld(farm)
    world.add_standard_victims(domains=3, mailboxes_per_domain=30)

    # C&C infrastructure for every family.
    rustock_campaign = world.default_campaign("rustock", batch_size=15,
                                              send_interval=1.0)
    rustock_cnc = world.add_http_cnc("rustock", "rustock-cc.example",
                                     rustock_campaign, port=443,
                                     path_prefix="/mod/")
    world.add_http_cnc("rustock-beacon", "rustock-cc.example",
                       rustock_campaign, port=80, path_prefix="/stat",
                       on_host=rustock_cnc.host)
    world.add_http_cnc("grum", "grum-cc.example",
                       world.default_campaign("grum", batch_size=15,
                                              send_interval=1.0),
                       path_prefix="/grum/")
    world.add_megad_cnc(campaign=world.default_campaign(
        "megad", batch_size=15, send_interval=1.0))
    # Publishers: one on port 80, one on 8080 (static privileged-port
    # rules do nothing for the latter — the Botlab leak).
    publisher80 = world.add_publisher("news-portal.example", port=80)
    publisher8080 = world.add_publisher("ad-network.example", port=8080)
    world.add_click_cnc("clickbot-cc.example", tasks=[
        {"host": "news-portal.example", "path": f"/article/{i}",
         "referer": "http://search.example/q"} for i in range(5)
    ] + [
        {"host": "ad-network.example", "port": 8080,
         "path": f"/click?ad={i}", "referer": "http://news-portal.example/"}
        for i in range(5)
    ], interval=3.0)

    sub.add_catchall_sink()
    sink = sub.add_smtp_sink()

    inmates = {}
    for family in FAMILIES:
        policy = _policy_for(regime, family)
        inmate = sub.create_inmate(image_factory=autoinfect_image(),
                                   policy=policy)
        policy.set_sample(inmate.vlan, inmate.vlan, Sample(family))
        inmates[family] = inmate

    farm.run(until=duration)

    result = RegimeResult(regime)
    for family, inmate in inmates.items():
        specimen = getattr(inmate.host, "specimen", None) \
            if inmate.host else None
        if specimen is None:
            continue
        stats = specimen.stats
        fetches = stats.get("cnc_fetches", 0)
        result.cnc_fetches += fetches
        result.spam_sessions_attempted += stats.get("smtp_sessions", 0)
        result.clicks_attempted += stats.get("clicks", 0) \
            + stats.get("request_failures", 0)
        if fetches:
            result.families_active += 1
    result.spam_harvested = sink.data_transfers
    result.spam_delivered_outside = world.total_spam_delivered()
    result.clicks_on_real_publishers = (publisher80.click_count
                                        + publisher8080.click_count)
    for inmate in inmates.values():
        global_ip = sub.nat.global_for(inmate.vlan)
        if global_ip is not None and world.blocklist.listed(global_ip):
            result.inmates_blacklisted += 1
    return result


_REGIME_FIELDS = (
    "cnc_fetches", "spam_sessions_attempted", "spam_harvested",
    "clicks_attempted", "families_active", "spam_delivered_outside",
    "clicks_on_real_publishers", "inmates_blacklisted",
)


def regime_shard(regime: str, duration: float = 900.0,
                 seed: int = 77) -> dict:
    """Shard task: one regime over the mixed population, as a
    JSON-safe dict — importable by spawn-started campaign workers."""
    result = run_regime(regime, duration, seed)
    payload = {"regime": regime}
    payload.update({field: getattr(result, field)
                    for field in _REGIME_FIELDS})
    payload["metrics"] = {
        "behaviour_score": result.behaviour_score,
        "harm_score": result.harm_score,
        "spam_harvested": result.spam_harvested,
    }
    return payload


def _regime_from_payload(payload: dict) -> RegimeResult:
    result = RegimeResult(payload["regime"])
    for field in _REGIME_FIELDS:
        setattr(result, field, payload[field])
    return result


def run_all_regimes(duration: float = 900.0, seed: int = 77,
                    workers: int = 1, hosts=None
                    ) -> Dict[str, RegimeResult]:
    """Every regime against the same universe — four independent farm
    runs, fanned out across a campaign worker pool (``workers=1`` =
    hermetic serial fallback)."""
    from repro.parallel import Campaign, run_campaign

    campaign = Campaign.config_sweep(
        "containment-tradeoff",
        "repro.experiments.containment_tradeoff:regime_shard",
        [{"regime": regime, "duration": duration, "seed": seed}
         for regime in REGIMES],
        base_seed=seed,
        labels=list(REGIMES),
    )
    result = run_campaign(campaign, workers=workers, hosts=hosts)
    if not result.ok:
        raise RuntimeError(
            f"containment-tradeoff shards failed: {result.failures}")
    return {payload["regime"]: _regime_from_payload(payload)
            for payload in result.payloads()}


def render(regimes: Dict[str, RegimeResult]) -> str:
    lines = [
        "Containment trade-off: behaviour elicited vs harm inflicted",
        "(mixed population: Grum, Rustock, MegaD, clickbot; same world, "
        "same duration)",
        "",
        f"{'REGIME':<15} {'FAMILIES':>8} {'BEHAVIOUR':>9} {'HARVEST':>8} "
        f"{'SPAM OUT':>8} {'FRAUD CLICKS':>12} {'BLACKLISTED':>11}",
        "-" * 80,
    ]
    for regime, result in regimes.items():
        lines.append(
            f"{regime:<15} {result.families_active:>8} "
            f"{result.behaviour_score:>9} {result.spam_harvested:>8} "
            f"{result.spam_delivered_outside:>8} "
            f"{result.clicks_on_real_publishers:>12} "
            f"{result.inmates_blacklisted:>11}"
        )
    lines.append("-" * 80)
    lines.append(
        "Shape: unconstrained maximizes both axes; isolation zeroes "
        "both; static\nrules (Botlab) lose most behaviour; GQ matches "
        "unconstrained behaviour at\nzero harm — the paper's central "
        "claim."
    )
    return "\n".join(lines)
