"""Every library and experiment policy, replayed against the decisions
recorded from the hand-written ``decide`` / ``decide_content`` methods.

``tests/golden/policy_decisions.json`` was recorded at the commit named
in its ``recorded_from`` *before* the class hierarchy was restated as
rules (docs/HARDENING.md, "record, then replace"): every policy of
:data:`CASES` x services {none, sink, sink + smtp_sink} x both
directions x tcp/udp x each port the class names +-1 plus 0 and 65535
x each address it names x :data:`CONTENT`, delivered whole, in two and
three chunks and a byte at a time, the way ``core/server.py`` puts a
flow to a policy.  Per probe the file holds the verdict, policy name,
annotation, target, rate and the delivery at which the decision came
(or the exception an unconfigured service raises).  The file is the
specification; this module only knows how to put a probe to a policy.

``python -m tests.golden.regen policy`` rewrites the file, which a
refactor never does after its recording commit.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import pytest

from repro.analysis.fingerprint import normalize_payload
from repro.analysis.policy_testing import DEFAULT_CONTENT
from repro.baselines.policies import (
    BotlabStaticPolicy,
    FullIsolationPolicy,
    UnconstrainedPolicy,
)
from repro.core.dsl import DslPolicy
from repro.core.policy import (
    AllowAll,
    ContainmentPolicy,
    DefaultDeny,
    PolicyContext,
    ReflectAll,
)
from repro.experiments import error_codes
from repro.experiments.classification import ClassificationPolicy
from repro.experiments.figure5 import Figure5Policy
from repro.experiments.flow_modes import (
    _LimitPolicy,
    _RedirectPolicy,
    _RewritePolicy,
)
from repro.experiments.policy_iteration import IterativePolicy, WhitelistRule
from repro.experiments.storm_infiltration import StormLoosePolicy
from repro.experiments.waledac_fidelity import WaledacEarlyPolicy
from repro.malware.corpus import Sample, SampleBatch
from repro.net.addresses import IPv4Address
from repro.net.flow import FiveTuple
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.policies.autoinfect import AutoInfectionPolicy
from repro.policies.clickbot import ClickbotPolicy
from repro.policies.crawler import HoneycrawlerPolicy
from repro.policies.ircbot import DgaBotPolicy, IrcBotPolicy
from repro.policies.spambot import (
    Grum,
    MegaDContainment,
    Rustock,
    SpambotPolicy,
    Waledac,
)
from repro.policies.storm import StormPolicy
from repro.policies.worm import WormHoneyfarmPolicy
from repro.world.cnc import MEGAD_PORT

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "policy_decisions.json")

INMATE = IPv4Address("10.100.0.2")
WORLD = IPv4Address("203.0.113.200")
INFECT = "10.9.8.7"
GMAIL_MX = "198.51.100.25"
#: The batch covers VLAN 2 only: VLAN 3 is "no batch".
BATCH_VLAN, BARE_VLAN = 2, 3

SINK = (IPv4Address("10.3.0.9"), 0)
SMTP_SINK = (IPv4Address("10.3.0.10"), 25)
SERVICE_SETS = {
    "none": {},
    "sink": {"sink": SINK},
    "sink+smtp": {"sink": SINK, "smtp_sink": SMTP_SINK},
}
DIRECTIONS = ("outbound", "inbound")
PROTOS = {"tcp": PROTO_TCP, "udp": PROTO_UDP}
DELIVERIES = ("whole", "halves", "thirds", "bytes")

#: The prober's corpus plus a witness for every family's content rule
#: and the lengths its wait rule turns on (16, 8, 512, len(MAGIC)).
CONTENT: Dict[str, bytes] = dict(
    DEFAULT_CONTENT,
    **{
        "clickbot-cnc": b"GET /click/tasks?aff=0a1b2c HTTP/1.1\r\n\r\n",
        "click": b"POST /ad/click?id=7 HTTP/1.1\r\nHost: ads\r\n\r\n",
        "irc-hello": b"NICK gq0a1b2c\r\nUSER gq 0 * :gq\r\n",
        "dga-cnc": b"GET /dga/cmd?id=0a1b2c HTTP/1.1\r\n\r\n",
        "storm-cnc": b"POST /storm/peer HTTP/1.1\r\n\r\n",
        "crawl": (b"GET /page HTTP/1.1\r\nHost: x\r\n"
                  b"User-Agent: Mozilla/4.0 (vulnerable)\r\n\r\n"),
        "long-header": (b"GET /x HTTP/1.1\r\nX-Pad: " + b"a" * 600),
        "drone-cnc": b"GET /drone/task?id=1 HTTP/1.1\r\n\r\n",
        "ftp-user": b"USER webmaster\r\n",
        "short": b"GET /",
        "short-crlf": b"X\r\n",
        "megad-short": b"MEG",
        "no-newline-15": b"A" * 15,
        "no-newline-16": b"A" * 16,
    })

GRUM_PROGRAM = """
outbound port 25/tcp                          -> reflect smtp_sink
outbound port 80/tcp content ~ "GET /grum/"   -> forward
default                                       -> reflect sink
"""
SCAN_PROGRAM = """
port 445/tcp     -> reflect sink
port 135-139/tcp -> drop
port 80/tcp      -> forward
default          -> reflect sink
"""
#: Content rules on both protocols, nested prefixes, a regex, a
#: fallback rule after content rules, every action kind.
MIXED_PROGRAM = """
port 80/tcp content ~ "GET /grum/"     -> forward
port 80/tcp content ~ "GET /"          -> limit 2500
port 80/tcp content =~ "POST /[a-z]+/" -> rewrite
port 80/tcp                            -> reflect sink
port 53/udp content ~ "MEGAD"          -> redirect 10.3.0.9:5353
inbound port 20-21/tcp                 -> redirect 203.0.113.99
inbound any                            -> drop
default                                -> reflect smtp_sink
"""


def _drone_policy() -> type:
    """``DronePolicy`` is local to ``run_condition``: take the class
    from the farm a zero-length run builds."""
    if hasattr(error_codes, "DronePolicy"):
        return error_codes.DronePolicy
    farms = []

    class Spy(error_codes.Farm):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            farms.append(self)

    original, error_codes.Farm = error_codes.Farm, Spy
    try:
        error_codes.run_condition("refuse-connection", duration=0.0)
    finally:
        error_codes.Farm = original
    (policy,) = farms[0].subfarms[
        "errorstudy"].policy_map.policies().values()
    return type(policy)


def _batched(cls: type, **kwargs) -> Callable:
    """An auto-infection policy with a two-sample batch on VLAN 2, so
    the served MD5 in the annotation alternates."""
    def build(services) -> ContainmentPolicy:
        policy = cls(services=services, **kwargs)
        policy.set_batch(BATCH_VLAN, BATCH_VLAN, SampleBatch(
            "corpus", [Sample("grum"), Sample("rustock")]))
        return policy
    return build


def _plain(cls: type, *args) -> Callable:
    return lambda services: cls(*args, services=services)


#: Two shapes on one port (one shorter than the wait rule's 8 bytes),
#: one elsewhere, one on the port that never leaves the farm.
WHITELIST = [WhitelistRule(80, normalize_payload(CONTENT["grum-cnc"])),
             WhitelistRule(80, b"HELO"),
             WhitelistRule(6667, normalize_payload(CONTENT["irc-hello"])),
             WhitelistRule(25, normalize_payload(CONTENT["smtp-dialogue"]))]


class Case(NamedTuple):
    build: Callable[[dict], ContainmentPolicy]
    ports: Tuple[int, ...]              # the ports the class names
    addresses: Tuple[str, ...] = ()     # the addresses it names


AUTOINFECT = (6543,)
CASES: Dict[str, Case] = {
    # The registry.
    "DefaultDeny": Case(_plain(DefaultDeny), ()),
    "AllowAll": Case(_plain(AllowAll), ()),
    "ReflectAll": Case(_plain(ReflectAll), ()),
    "Dsl": Case(_plain(DslPolicy), ()),
    "Dsl:grum": Case(_plain(DslPolicy, GRUM_PROGRAM), (25, 80)),
    "Dsl:scan": Case(_plain(DslPolicy, SCAN_PROGRAM), (80, 135, 139, 445)),
    "Dsl:mixed": Case(_plain(DslPolicy, MIXED_PROGRAM), (20, 21, 53, 80)),
    "AutoInfectionPolicy": Case(_batched(AutoInfectionPolicy), AUTOINFECT,
                                (INFECT,)),
    "SpambotPolicy": Case(_batched(SpambotPolicy), (25,) + AUTOINFECT,
                          (INFECT,)),
    "Grum": Case(_batched(Grum), (25, 80) + AUTOINFECT, (INFECT,)),
    "Rustock": Case(_batched(Rustock), (25, 80, 443) + AUTOINFECT,
                    (INFECT,)),
    "Waledac": Case(_batched(Waledac), (25, 80) + AUTOINFECT, (INFECT,)),
    "MegaD": Case(_batched(MegaDContainment),
                  (25, MEGAD_PORT) + AUTOINFECT, (INFECT,)),
    "IrcBot": Case(_batched(IrcBotPolicy), (25, 6667) + AUTOINFECT,
                   (INFECT,)),
    "DgaBot": Case(_batched(DgaBotPolicy), (25, 80) + AUTOINFECT,
                   (INFECT,)),
    "Storm": Case(_batched(StormPolicy), (80,) + AUTOINFECT, (INFECT,)),
    "Clickbot": Case(_batched(ClickbotPolicy), (80,) + AUTOINFECT,
                     (INFECT,)),
    "Honeycrawler": Case(_plain(HoneycrawlerPolicy), (25, 80)),
    "WormHoneyfarm": Case(_plain(WormHoneyfarmPolicy), (445,)),
    "Unconstrained": Case(_batched(UnconstrainedPolicy), AUTOINFECT,
                          (INFECT,)),
    "FullIsolation": Case(_batched(FullIsolationPolicy), AUTOINFECT,
                          (INFECT,)),
    "BotlabStatic": Case(_batched(BotlabStaticPolicy),
                         (1024, 1433, 2967, 4444, 5554, 9996) + AUTOINFECT,
                         (INFECT,)),
    "Classification": Case(_batched(ClassificationPolicy), AUTOINFECT,
                           (INFECT,)),
    # The experiments' own.
    "ReportingDrone": Case(lambda services: _batched(_drone_policy())(
        services), (25, 80) + AUTOINFECT, (INFECT,)),
    "Figure5": Case(_plain(Figure5Policy), (80,)),
    "FlowModes:redirect": Case(_plain(_RedirectPolicy), (80,)),
    "FlowModes:limit": Case(_plain(_LimitPolicy), (80,)),
    "FlowModes:rewrite": Case(_plain(_RewritePolicy), (80,)),
    "Iterative": Case(_batched(IterativePolicy, rules=WHITELIST),
                      (25, 80, 6667) + AUTOINFECT, (INFECT,)),
    "Iterative:empty": Case(_batched(IterativePolicy), (25,) + AUTOINFECT,
                            (INFECT,)),
    "StormLoose": Case(_batched(StormLoosePolicy), (21, 80) + AUTOINFECT,
                       (INFECT,)),
    "WaledacEarly": Case(_batched(WaledacEarlyPolicy,
                                  gmail_mx_ip=GMAIL_MX),
                         (25, 80) + AUTOINFECT, (INFECT, GMAIL_MX)),
    # Figure 6's [Autoinfect] section moves the infection endpoint: put
    # it on a port the family's own rules name.
    "Grum@80": Case(_batched(Grum, config={"autoinfect_port": "80"}),
                    (25, 80), (INFECT,)),
    "Rustock@443": Case(_batched(Rustock, config={
        "autoinfect_address": "10.1.2.3", "autoinfect_port": "443"}),
        (25, 80, 443), ("10.1.2.3",)),
    "Storm@80": Case(_batched(StormPolicy, config={"autoinfect_port": "80"}),
                     (80,), (INFECT,)),
    "Iterative@80": Case(_batched(IterativePolicy, rules=WHITELIST,
                                  config={"autoinfect_port": "80"}),
                         (25, 80, 6667), (INFECT,)),
}


# ----------------------------------------------------------------------
# Putting a probe to a policy
# ----------------------------------------------------------------------
def probe_ports(case: Case) -> List[int]:
    ports = {0, 65535}
    for port in case.ports:
        ports.update((port - 1, port, port + 1))
    return sorted(ports)


def probe_addresses(case: Case) -> List[list]:
    """``[responder address or None, VLAN]``: None is the far end of an
    ordinary flow (the world outbound, the inmate inbound); a named
    address is dialled from a VLAN with a batch and from one without."""
    out: List[list] = [[None, BATCH_VLAN]]
    for address in case.addresses:
        out += [[address, BATCH_VLAN], [address, BARE_VLAN]]
    return out


def context(services: dict, direction: str, proto: int, port: int,
            address: Optional[str], vlan: int) -> PolicyContext:
    outbound = direction == "outbound"
    orig, resp = (INMATE, WORLD) if outbound else (WORLD, INMATE)
    if address is not None:
        resp = IPv4Address(address)
    return PolicyContext(FiveTuple(orig, 4321, resp, port, proto),
                         vlan_id=vlan, nonce_port=40000, now=0.0,
                         services=services, inmate_is_originator=outbound)


def deliveries(content: bytes, proto: int) -> Dict[str, List[bytes]]:
    """The buffers ``decide_content`` is shown per delivery mode: after
    every TCP segment that leaves the buffer non-empty, or the one
    datagram (``_CsConnection._on_data_body`` / ``_udp_datagram_body``)."""
    if proto == PROTO_UDP:
        return {"whole": [content]}
    size = len(content)
    cuts = {"whole": [size], "halves": [size // 2, size],
            "thirds": [size // 3, 2 * size // 3, size],
            "bytes": list(range(1, size + 1))}
    return {mode: [content[:cut] for cut in cuts[mode] if cut]
            for mode in DELIVERIES}


def outcome(call: Callable) -> Optional[list]:
    """What a policy answered: None (no verdict yet), the decision's
    fields, or the exception it raised."""
    try:
        decision = call()
    except Exception as error:  # noqa: BLE001 - recorded, not handled
        return ["raises", type(error).__name__]
    if decision is None:
        return None
    target = None
    if decision.target_ip is not None:
        target = f"{decision.target_ip}:{decision.target_port}"
    return [decision.verdict.label, decision.policy, decision.annotation,
            target, decision.rate]


def run_case(case: Case, services: dict, axes: dict,
             intern: Callable[[Optional[list]], int]) -> dict:
    """Drive every probe of ``axes`` through one fresh policy; returns
    ``endpoint`` (one outcome index per (direction, proto, port,
    address) in axis order, -1 where the endpoint alone cannot tell)
    and ``content`` (for those: ``{row: {tag: [[outcome index, deciding
    delivery] per mode]}}``, -1 for a flow still undecided at the end)."""
    policy = case.build(dict(services))
    endpoint: List[int] = []
    content: Dict[str, dict] = {}
    for direction in axes["directions"]:
        for proto_name in axes["protos"]:
            proto = PROTOS[proto_name]
            for port in axes["ports"]:
                for address, vlan in axes["addresses"]:
                    def ctx() -> PolicyContext:
                        return context(policy.services, direction, proto,
                                       port, address, vlan)
                    first = outcome(lambda: policy.decide(ctx()))
                    endpoint.append(intern(first))
                    if first is not None:
                        continue
                    row = content[str(len(endpoint) - 1)] = {}
                    for tag in axes["content"]:
                        row[tag] = [
                            _deliver(policy, ctx(), buffers, intern)
                            for buffers in deliveries(
                                CONTENT[tag], proto).values()]
    return {"endpoint": endpoint, "content": content}


def _deliver(policy, ctx: PolicyContext, buffers: List[bytes],
             intern: Callable) -> List[int]:
    assert policy.decide(ctx) is None
    for index, data in enumerate(buffers):
        answer = outcome(lambda: policy.decide_content(ctx, data))
        if answer is not None:
            return [intern(answer), index]
    return [-1, len(buffers)]


# ----------------------------------------------------------------------
# Recording (python -m tests.golden.regen policy)
# ----------------------------------------------------------------------
class Outcomes:
    """Distinct outcomes, numbered in order of first appearance."""

    def __init__(self, known: Optional[List[list]] = None) -> None:
        self.known = list(known or [])

    def index(self, answer: Optional[list]) -> int:
        if answer is None:
            return -1
        if answer not in self.known:
            self.known.append(answer)
        return self.known.index(answer)

    def spell(self, index: int) -> Optional[list]:
        return None if index == -1 else self.known[index]


def record() -> dict:
    outcomes = Outcomes()
    cases = {}
    for name, case in CASES.items():
        axes = {"directions": list(DIRECTIONS), "protos": list(PROTOS),
                "ports": probe_ports(case),
                "addresses": probe_addresses(case),
                "content": sorted(CONTENT)}
        cases[name] = dict(axes, services={
            label: run_case(case, services, axes, outcomes.index)
            for label, services in SERVICE_SETS.items()})
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    return {"recorded_from": commit, "outcomes": outcomes.known,
            "cases": cases,
            "content": {tag: data.hex() for tag, data in CONTENT.items()}}


def write_corpus() -> str:
    with open(CORPUS_PATH, "w") as handle:
        json.dump(record(), handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    return CORPUS_PATH


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def corpus() -> dict:
    with open(CORPUS_PATH) as handle:
        return json.load(handle)


def test_the_corpus_covers_every_case_and_content():
    assert set(corpus()["cases"]) == set(CASES)
    assert corpus()["content"] == {tag: data.hex()
                                   for tag, data in CONTENT.items()}
    for name, case in CASES.items():
        recorded = corpus()["cases"][name]
        assert recorded["ports"] == probe_ports(case), name
        assert recorded["addresses"] == probe_addresses(case), name
        assert set(recorded["services"]) == set(SERVICE_SETS), name


def _explain(recorded: dict, row: int) -> str:
    """The probe behind endpoint row ``row``, in words."""
    picks = []
    for axis in ("addresses", "ports", "protos", "directions"):
        row, index = divmod(row, len(recorded[axis]))
        picks.append(recorded[axis][index])
    (address, vlan), port, proto, direction = picks
    return (f"{direction} {proto}:{port} to {address or 'the far end'} "
            f"from vlan {vlan}")


@pytest.mark.parametrize("services", sorted(SERVICE_SETS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_policy_replays_its_recorded_decisions(name, services):
    recorded = corpus()["cases"][name]
    expected = recorded["services"][services]
    # Known outcomes keep their recorded numbers; a new one gets a new
    # number and so differs from every recorded entry.
    outcomes = Outcomes(corpus()["outcomes"])
    replayed = run_case(CASES[name], SERVICE_SETS[services], recorded,
                        outcomes.index)

    for row, (want, got) in enumerate(zip(expected["endpoint"],
                                          replayed["endpoint"])):
        assert got == want, (
            f"{name}/{services}: {_explain(recorded, row)}: endpoint "
            f"answered {outcomes.spell(got)}, recorded "
            f"{outcomes.spell(want)}")
    assert replayed["endpoint"] == expected["endpoint"]
    for row, tags in expected["content"].items():
        for tag, per_mode in tags.items():
            answers = replayed["content"][row][tag]
            for mode, want, got in zip(DELIVERIES, per_mode, answers):
                assert got == want, (
                    f"{name}/{services}: {_explain(recorded, int(row))}, "
                    f"content {tag!r} delivered {mode}: answered "
                    f"{outcomes.spell(got[0])} at delivery {got[1]}, "
                    f"recorded {outcomes.spell(want[0])} at {want[1]}")
    assert replayed["content"] == expected["content"]
