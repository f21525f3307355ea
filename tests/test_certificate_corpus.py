"""Isolation certificates, pinned across commits.

``tests/golden/certificates.json`` holds the digest of the certificate
:func:`repro.verify.certify_farm` signs for every farm of :func:`corpus`,
by label.  A certificate digest covers the whole document (model
digest, state and transition counts, grant table, leak list,
counterexample, allow-spec, result), so a pin moves when anything the
verifier concludes moves.  The farms are built, never run: certifying
reads only configuration.  The corpus has three parts:

1. every registered policy class of the core, ``repro.policies`` and
   ``repro.baselines`` as a subfarm's default, with no services or with
   a catch-all and an SMTP sink, certified with no allow-spec or with
   :data:`ALLOW`;
2. every ``fault_matrix.SCENARIOS`` plan under pending policy drop or
   forward, with zero or one extra containment server;
3. :data:`PROGRAM_SEEDS` seeded DSL programs, three per farm (two on
   VLAN ranges, one the default), with and without a shim-partition
   window under a fail-open pending policy.

``python -m tests.golden.regen verify`` rewrites the file; a refactor
of ``repro.verify`` records it from its parent commit and never again.
"""

from __future__ import annotations

import functools
import json
import os
import random
from typing import Dict, List

from repro.core.dsl import DslError, DslPolicy
from repro.core.policy import POLICY_REGISTRY, AllowAll
from repro.experiments.fault_matrix import SCENARIOS
from repro.farm import Farm, FarmConfig
from repro.verify import certify_farm

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "certificates.json")

SEED = 11
#: The one operator allow-spec of part 1: web out, DNS, nothing else.
ALLOW = [{"proto": "tcp", "port_lo": 80, "port_hi": 443,
          "verdicts": ["FORWARD", "LIMIT"]},
         {"proto": "udp", "port_lo": 53, "port_hi": 53}]
#: Packages whose registered classes part 1 certifies (experiment
#: policies register on import, so the registry alone depends on what
#: ran before).
LIBRARY = ("repro.core.", "repro.policies.", "repro.baselines.")
PROGRAM_SEEDS = range(12)
SHIM_PARTITION = {"kind": "shim_partition", "start": 20.0, "end": 50.0}

#: Clause templates of part 3; ``{p}`` < ``{q}`` are random ports and
#: ``{h}`` a random host octet.
CLAUSES = (
    "port {p}/tcp -> forward",
    "outbound port {p}-{q}/udp -> limit 2500",
    'port {p}/tcp content ~ "GET /" -> rewrite',
    'outbound port {p}-{q}/tcp content =~ "HELO|EHLO" -> reflect smtp_sink',
    "port {p}/udp -> redirect 203.0.113.{h}:{p}",
    "outbound port {p}-{q}/tcp -> redirect 198.51.100.{h}",
    "port {p}/tcp -> redirect 10.3.0.9:25",
    "inbound port {p}/tcp -> forward",
    "port {p}-{q}/tcp -> reflect sink",
    "inbound any -> drop",
)
DEFAULTS = ("drop", "forward", "reflect sink", "rewrite")


def library_policies() -> List[type]:
    import repro.baselines  # noqa: F401 - registers the baselines
    import repro.policies  # noqa: F401 - registers the library
    import repro.policies.crawler  # noqa: F401 - not re-exported by it

    return [cls for _name, cls in sorted(POLICY_REGISTRY.items())
            if cls.__module__.startswith(LIBRARY)]


def program(seed: int) -> str:
    """A DSL program the parser accepts, drawn from :data:`CLAUSES`."""
    rng = random.Random(seed)
    while True:
        lines = []
        for template in rng.sample(CLAUSES, rng.randrange(1, 5)):
            p, q = sorted(
                rng.choice((25, 53, 80, 443, rng.randrange(1, 65535)))
                for _ in range(2))
            lines.append(template.format(p=p, q=max(q, p + 1),
                                         h=rng.randrange(1, 255)))
        text = "\n".join(lines + [f"default -> {rng.choice(DEFAULTS)}"])
        try:
            DslPolicy(text)
        except DslError:        # a dead rule: draw again
            continue
        return text


def _sinks(sub) -> None:
    sub.add_catchall_sink()
    sub.add_smtp_sink()


def policy_farm(cls, services: bool) -> Farm:
    farm = Farm(FarmConfig(seed=SEED))
    sub = farm.create_subfarm("lib")
    if services:
        _sinks(sub)
    sub.set_default_policy(cls())
    return farm


def scenario_farm(scenario: str, pending: str, extra_cs: int) -> Farm:
    """``fault_matrix.build_fault_farm``'s farm, not run."""
    farm = Farm(FarmConfig(
        seed=SEED, fault_plan={"specs": SCENARIOS[scenario]["specs"]},
        verdict_deadline=5.0, pending_policy=pending))
    for index in range(2):
        sub = farm.create_subfarm(f"fault-sub-{index}")
        sub.set_default_policy(AllowAll())
        if extra_cs:
            sub.add_containment_servers(extra_cs)
    return farm


def program_farm(seed: int, window: bool) -> Farm:
    config = {"seed": SEED}
    if window:
        config.update(fault_plan={"specs": [SHIM_PARTITION]},
                      verdict_deadline=5.0, pending_policy="forward")
    farm = Farm(FarmConfig(**config))
    sub = farm.create_subfarm("dsl")
    _sinks(sub)
    sub.assign_policy(DslPolicy(program(3 * seed)), 2, 9)
    sub.assign_policy(DslPolicy(program(3 * seed + 1)), 10, 10)
    sub.set_default_policy(DslPolicy(program(3 * seed + 2)))
    return farm


def corpus() -> Dict[str, tuple]:
    """label -> (farm builder, allow-spec)."""
    farms: Dict[str, tuple] = {}
    for cls in library_policies():
        for services in (False, True):
            for allow in (None, ALLOW):
                label = (f"policy/{cls.__name__}"
                         f"/{'sinks' if services else 'bare'}"
                         f"/{'allow' if allow else 'open'}")
                farms[label] = (functools.partial(policy_farm, cls, services),
                                allow)
    for scenario in sorted(SCENARIOS):
        for pending in ("drop", "forward"):
            for extra_cs in (0, 1):
                label = f"fault/{scenario}/{pending}/cs+{extra_cs}"
                farms[label] = (functools.partial(
                    scenario_farm, scenario, pending, extra_cs), None)
    for seed in PROGRAM_SEEDS:
        for window in (False, True):
            label = f"dsl/{seed}/{'shim-partition' if window else 'steady'}"
            farms[label] = (functools.partial(program_farm, seed, window),
                            None)
    return farms


@functools.lru_cache(maxsize=1)
def certificates() -> Dict[str, dict]:
    return {label: certify_farm(build(), label=label, allow=allow)
            for label, (build, allow) in corpus().items()}


def record() -> Dict[str, str]:
    return {label: cert["digest"]
            for label, cert in certificates().items()}


def pinned() -> Dict[str, str]:
    with open(CORPUS_PATH, encoding="utf-8") as handle:
        return json.load(handle)["certificates"]


def test_every_certificate_holds_its_pin():
    pins, digests = pinned(), record()
    assert sorted(digests) == sorted(pins)
    moved = [label for label in pins if digests[label] != pins[label]]
    assert moved == [], f"{len(moved)} certificate(s) moved: {moved[:8]}"


def test_corpus_reaches_every_verifier_conclusion():
    """What the pins hold: every grant kind, every leak kind, the leak
    cap, both results, and a counterexample that the tie-break's low
    port picks over an earlier leak of its (subfarm, vlan, proto)
    occur somewhere in the corpus."""
    certs = certificates().values()
    grant_kinds = {grant["grant_kind"] for cert in certs
                   for grant in cert["grants"]}
    leak_kinds = {leak["kind"] for cert in certs for leak in cert["leaks"]}
    assert grant_kinds == {"explicit", "inbound-response",
                           "content-controlled"}
    assert leak_kinds == {"unexpected-grant", "redirect-to-world",
                          "pending-forward"}
    assert {cert["result"] for cert in certs} == {"CONTAINED", "LEAKY"}
    assert any(cert["leak_count"] > len(cert["leaks"]) for cert in certs)
    assert any(_first_on_path(cert) not in (
        None, cert["counterexample"]["trace"])
        for cert in certs if cert["counterexample"])


def _first_on_path(cert: dict):
    """The trace of the first kept leak on the counterexample's
    (subfarm, vlan, proto), if one was kept."""
    path = cert["counterexample"]["path"]
    return next((leak["trace"] for leak in cert["leaks"]
                 if (leak["subfarm"], leak["vlan"], leak["proto"])
                 == (path["subfarm"], path["src_vlan"], path["proto"])),
                None)
