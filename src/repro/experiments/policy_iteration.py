"""The §3 methodology: iterative default-deny policy development.

"Beginning from a complete default-deny of interaction with the
outside world, we execute the specimen in a subfarm providing a 'sink
server' ...  We can then whitelist traffic believed-safe for outside
interaction, in the most narrow fashion possible ...  We then iterate
the process over repeated executions of the specimen until we arrive
at a containment policy that allows just the C&C lifeline onto the
Internet, while containing malicious activity inside GQ."

The analyst is modelled mechanically: after each execution, inspect
the sink's records, pick the most frequent non-SMTP traffic class
(destination port + normalized payload prefix), and whitelist exactly
that shape.  The loop ends when the specimen is fully alive (C&C
fetched, payload behaviour observed in the farm) — and the run
history shows zero harm escaped at *every* iteration, which is the
methodology's point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.fingerprint import normalize_payload
from repro.core.policy import Action, Content, Rule, shorter_than
from repro.farm import Farm, FarmConfig
from repro.inmates.images import autoinfect_image
from repro.malware.corpus import Sample
from repro.policies.autoinfect import AutoInfectionPolicy
from repro.world.builder import ExternalWorld

SMTP_PORT = 25


class WhitelistRule:
    """One narrowly whitelisted traffic shape."""

    __slots__ = ("port", "token")

    def __init__(self, port: int, token: bytes) -> None:
        self.port = port
        self.token = token

    def __repr__(self) -> str:
        return f"<Rule port={self.port} token={self.token!r}>"


class IterativePolicy(AutoInfectionPolicy):
    """Default-deny-to-sink plus the analyst's accumulated whitelist."""

    name = "Iterative"
    default = Action("reflect", "default-deny to sink", "sink")

    def __init__(self, rules: Optional[List[WhitelistRule]] = None,
                 services=None, config=None) -> None:
        super().__init__(services, config)
        self.rules = list(rules or [])

    def declare(self) -> List[Rule]:
        # Malicious activity stays inside, always.
        smtp = "SMTP containment"
        declared = super().declare() + [Rule(
            Action("reflect", smtp, "smtp_sink",
                   Action("reflect", smtp, "sink")), SMTP_PORT)]
        # Per whitelisted port: the shapes let out, the rest to the sink.
        for port in sorted({r.port for r in self.rules}):
            shapes = frozenset(r.token for r in self.rules if r.port == port)
            declared += [
                Rule(Action("forward", "whitelisted C&C shape"), port,
                     content=Content(
                         f"shape:{sorted(shapes)!r}",
                         lambda data, shapes=shapes:
                             normalize_payload(data) in shapes,
                         shorter_than(8))),
                Rule(Action("reflect", "content mismatch to sink", "sink"),
                     port)]
        return declared


class IterationOutcome:
    """What one execution under the current policy revealed."""

    def __init__(self, iteration: int) -> None:
        self.iteration = iteration
        self.rules: List[WhitelistRule] = []
        self.cnc_fetches = 0
        self.spam_harvested = 0
        self.harm_outside = 0
        self.sink_classes: List[Tuple[int, bytes, int]] = []
        self.new_rule: Optional[WhitelistRule] = None

    @property
    def fully_alive(self) -> bool:
        return self.cnc_fetches > 0 and self.spam_harvested > 0

    def __repr__(self) -> str:
        return (
            f"<Iteration {self.iteration}: rules={len(self.rules)} "
            f"cnc={self.cnc_fetches} harvest={self.spam_harvested} "
            f"harm={self.harm_outside}>"
        )


def _analyst_step(sink_records, existing: List[WhitelistRule]
                  ) -> Tuple[List[Tuple[int, bytes, int]],
                             Optional[WhitelistRule]]:
    """Inspect the sink and propose the next narrow whitelist rule."""
    classes: Dict[Tuple[int, bytes], int] = {}
    for record in sink_records:
        if record.proto != "tcp" or record.dst_port == SMTP_PORT:
            continue
        payload = bytes(record.payload)
        if not payload:
            continue
        key = (record.dst_port, normalize_payload(payload))
        classes[key] = classes.get(key, 0) + 1
    ranked = sorted(classes.items(), key=lambda item: -item[1])
    summary = [(port, token, count) for (port, token), count in ranked]
    for (port, token), _count in ranked:
        if not any(r.port == port and r.token == token for r in existing):
            return summary, WhitelistRule(port, token)
    return summary, None


def run_iteration(family: str, rules: List[WhitelistRule],
                  iteration: int, duration: float = 400.0,
                  seed: int = 31) -> IterationOutcome:
    farm = Farm(FarmConfig(seed=seed + iteration))
    sub = farm.create_subfarm("development")
    world = ExternalWorld(farm)
    world.add_standard_victims(domains=2, mailboxes_per_domain=20)
    campaign = world.default_campaign(family, batch_size=10,
                                      send_interval=1.0)
    if family == "rustock":
        cnc = world.add_http_cnc("rustock", "rustock-cc.example", campaign,
                                 port=443, path_prefix="/mod/")
        world.add_http_cnc("rustock-beacon", "rustock-cc.example", campaign,
                           port=80, path_prefix="/stat", on_host=cnc.host)
    elif family == "megad":
        world.add_megad_cnc(campaign=campaign)
    else:
        world.add_http_cnc(family, f"{family}-cc.example", campaign,
                           path_prefix=f"/{family}/")

    sink = sub.add_catchall_sink()
    smtp_sink = sub.add_smtp_sink()
    policy = IterativePolicy(rules)
    inmate = sub.create_inmate(image_factory=autoinfect_image(),
                               policy=policy)
    policy.set_sample(inmate.vlan, inmate.vlan, Sample(family))
    farm.run(until=duration)

    outcome = IterationOutcome(iteration)
    outcome.rules = list(rules)
    specimen = getattr(inmate.host, "specimen", None) if inmate.host else None
    if specimen is not None:
        outcome.cnc_fetches = specimen.stats.get("cnc_fetches", 0)
    outcome.spam_harvested = smtp_sink.data_transfers
    outcome.harm_outside = world.total_spam_delivered()
    outcome.sink_classes, outcome.new_rule = _analyst_step(
        sink.records, rules)
    return outcome


def develop_policy(family: str = "grum", max_iterations: int = 6,
                   duration: float = 400.0,
                   seed: int = 31) -> List[IterationOutcome]:
    """Run the full development loop; returns the iteration history."""
    rules: List[WhitelistRule] = []
    history: List[IterationOutcome] = []
    for iteration in range(max_iterations):
        outcome = run_iteration(family, rules, iteration, duration, seed)
        history.append(outcome)
        if outcome.fully_alive:
            break
        if outcome.new_rule is None:
            break  # nothing left to whitelist
        rules.append(outcome.new_rule)
    return history


FAMILIES = ("grum", "rustock", "megad")


def develop_families(duration: float = 400.0, seed: int = 31
                     ) -> Dict[str, List[IterationOutcome]]:
    return {family: develop_policy(family, duration=duration, seed=seed)
            for family in FAMILIES}


def render(histories: Dict[str, List[IterationOutcome]]) -> str:
    lines = [
        "Iterative policy development from default-deny (§3)",
        "",
    ]
    for family, history in histories.items():
        lines.append(f"{family}:")
        for outcome in history:
            rule = outcome.new_rule
            lines.append(
                f"    iteration {outcome.iteration}: "
                f"rules={len(outcome.rules)} "
                f"cnc={outcome.cnc_fetches} "
                f"harvest={outcome.spam_harvested} "
                f"harm={outcome.harm_outside} "
                + (f"-> whitelist port {rule.port} shape {rule.token!r}"
                   if rule else "-> converged" if outcome.fully_alive
                   else "-> nothing left to learn")
            )
        lines.append("")
    lines.append(
        "Every iteration ran with zero harm escaping — developing the "
        "policy\nIS the analysis, and it is safe from the first run."
    )
    return "\n".join(lines)
