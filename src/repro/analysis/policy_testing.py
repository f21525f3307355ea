"""Policy test-case generation and enforcement verification.

Implements two things the paper explicitly wished for:

* §5.4: "ideally mechanisms would exist to verify that developed
  policies operate as intended; we have not implemented such, a
  deficiency of our current system."
* §8: "a traffic generation tool that can automatically produce test
  cases for a given concrete containment policy would strengthen
  confidence in the policy's correctness significantly."

Two layers:

:func:`enumerate_surface`
    Offline: probe a policy object with a generated matrix of
    (direction × port × content) cases and tabulate the verdicts —
    the policy's *decision surface*.  Invariant predicates (e.g.
    "SMTP never leaves the farm") run over the surface.

:func:`verify_enforcement`
    Live: drive generated flows through a real farm and cross-check
    that the gateway's observable behaviour matches the containment
    server's verdicts — catching mechanism/policy mismatches, not just
    policy mistakes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.policy import ContainmentPolicy, PolicyContext
from repro.core.verdicts import ContainmentDecision, Verdict
from repro.net.addresses import IPv4Address
from repro.net.flow import FiveTuple
from repro.net.packet import PROTO_TCP

# ----------------------------------------------------------------------
# Probe corpus
# ----------------------------------------------------------------------
DEFAULT_PORTS = [21, 22, 25, 53, 80, 110, 135, 443, 445, 1433, 4443,
                 6667, 8080, 31337]

DEFAULT_CONTENT: Dict[str, bytes] = {
    "empty": b"",
    "http-get": b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n",
    "grum-cnc": b"GET /grum/spm?id=0a1b2c3d HTTP/1.1\r\n\r\n",
    "rustock-beacon": b"GET /stat?r=7&sent=120 HTTP/1.1\r\n\r\n",
    "rustock-cnc": b"GET /mod/cmd?id=0a1b2c3d HTTP/1.1\r\n\r\n",
    "waledac-cnc": b"POST /waledac/ctrl HTTP/1.1\r\n\r\n<lm/>",
    "megad-magic": b"MEGAD\x0100aabbcc",
    "smtp-dialogue": b"HELO wergvan\r\nMAIL FROM:<a@b.c>\r\n",
    "irc-session": b"NICK gqbot\r\nUSER gq 0 * :gq\r\n",
    "sql-injection": b"GET /page.php?id=1;DROP%20TABLE%20users HTTP/1.1\r\n\r\n",
    "raw-binary": bytes(range(48)),
}


class Probe:
    """One generated test case."""

    __slots__ = ("direction", "port", "proto", "content_tag", "content")

    def __init__(self, direction: str, port: int, proto: int,
                 content_tag: str, content: bytes) -> None:
        self.direction = direction
        self.port = port
        self.proto = proto
        self.content_tag = content_tag
        self.content = content

    def __repr__(self) -> str:
        return (f"<Probe {self.direction} :{self.port}/"
                f"{'tcp' if self.proto == PROTO_TCP else 'udp'} "
                f"{self.content_tag}>")


class ProbeOutcome:
    __slots__ = ("probe", "decision")

    def __init__(self, probe: Probe,
                 decision: ContainmentDecision) -> None:
        self.probe = probe
        self.decision = decision

    @property
    def verdict(self) -> str:
        return self.decision.verdict.label

    def __repr__(self) -> str:
        return f"<Outcome {self.probe!r} -> {self.verdict}>"


def generate_probes(
    ports: Optional[List[int]] = None,
    content: Optional[Dict[str, bytes]] = None,
    directions: Tuple[str, ...] = ("outbound", "inbound"),
    protos: Tuple[int, ...] = (PROTO_TCP,),
) -> List[Probe]:
    ports = ports if ports is not None else DEFAULT_PORTS
    content = content if content is not None else DEFAULT_CONTENT
    probes = []
    for direction in directions:
        for proto in protos:
            for port in ports:
                for tag, payload in content.items():
                    probes.append(Probe(direction, port, proto, tag,
                                        payload))
    return probes


# ----------------------------------------------------------------------
# Offline surface enumeration
# ----------------------------------------------------------------------
class SurfaceReport:
    def __init__(self, policy_name: str) -> None:
        self.policy_name = policy_name
        self.outcomes: List[ProbeOutcome] = []
        self.undecided: List[Probe] = []

    def verdict_matrix(self) -> Dict[Tuple[str, int, str], str]:
        return {
            (o.probe.direction, o.probe.port, o.probe.content_tag):
            o.verdict
            for o in self.outcomes
        }

    def forwarded(self) -> List[ProbeOutcome]:
        """The harm surface: everything that leaves the farm."""
        return [o for o in self.outcomes if o.decision.verdict.grants_world]

    def __repr__(self) -> str:
        return (f"<SurfaceReport {self.policy_name}: "
                f"{len(self.outcomes)} probes, "
                f"{len(self.forwarded())} forwarded>")


_INMATE_IP = IPv4Address("10.100.0.2")
_OUTSIDE_IP = IPv4Address("203.0.113.200")


def drive(policy: ContainmentPolicy,
          probe: Probe) -> Optional[ContainmentDecision]:
    """Put one probe to a policy the way the containment server puts a
    flow: ``decide`` on the endpoint, then ``decide_content`` on the
    probe's bytes.  None: still waiting for content."""
    outbound = probe.direction == "outbound"
    orig, resp = ((_INMATE_IP, _OUTSIDE_IP) if outbound
                  else (_OUTSIDE_IP, _INMATE_IP))
    ctx = PolicyContext(
        FiveTuple(orig, 4321, resp, probe.port, probe.proto),
        vlan_id=2, nonce_port=40000, now=0.0, services=policy.services,
        inmate_is_originator=outbound)
    return policy.decide(ctx) or policy.decide_content(ctx, probe.content)


def enumerate_surface(
    policy: ContainmentPolicy,
    services: Optional[Dict[str, Tuple[IPv4Address, int]]] = None,
    probes: Optional[List[Probe]] = None,
) -> SurfaceReport:
    """Probe the policy offline and tabulate its decision surface."""
    if services is not None and not policy.services:
        policy.services = services
    if not policy.services:
        policy.services = {
            "sink": (IPv4Address("10.3.0.9"), 0),
            "smtp_sink": (IPv4Address("10.3.0.10"), 0),
        }
    probes = probes if probes is not None else generate_probes()
    report = SurfaceReport(policy.policy_name)
    for probe in probes:
        decision = drive(policy, probe)
        if decision is None:
            report.undecided.append(probe)
            continue
        report.outcomes.append(ProbeOutcome(probe, decision))
    return report


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------
Invariant = Tuple[str, Callable[[ProbeOutcome], Optional[str]]]


def _no_smtp_escape(outcome: ProbeOutcome) -> Optional[str]:
    if outcome.probe.port == 25 and outcome.decision.verdict.grants_world:
        return "SMTP allowed out of the farm"
    return None


def _no_blanket_forward(outcome: ProbeOutcome) -> Optional[str]:
    if (outcome.probe.content_tag in ("raw-binary", "sql-injection")
            and outcome.decision.verdict & Verdict.FORWARD):
        return "unrecognized/malicious content forwarded"
    return None


STANDARD_INVARIANTS: List[Invariant] = [
    ("no-smtp-escape", _no_smtp_escape),
    ("no-blanket-forward", _no_blanket_forward),
]


def check_invariants(
    report: SurfaceReport,
    invariants: Optional[List[Invariant]] = None,
) -> List[Tuple[str, ProbeOutcome, str]]:
    """Run invariant predicates over a surface; returns violations."""
    invariants = invariants if invariants is not None else STANDARD_INVARIANTS
    violations = []
    for name, predicate in invariants:
        for outcome in report.outcomes:
            message = predicate(outcome)
            if message is not None:
                violations.append((name, outcome, message))
    return violations


# ----------------------------------------------------------------------
# Live enforcement verification
# ----------------------------------------------------------------------
class EnforcementMismatch:
    __slots__ = ("probe", "verdict", "observed")

    def __init__(self, probe: Probe, verdict: str, observed: str) -> None:
        self.probe = probe
        self.verdict = verdict
        self.observed = observed

    def __repr__(self) -> str:
        return (f"<Mismatch {self.probe!r}: verdict={self.verdict} "
                f"but observed={self.observed}>")


def verify_enforcement(
    policy_factory: Callable[[], ContainmentPolicy],
    ports: Optional[List[int]] = None,
    content: Optional[Dict[str, bytes]] = None,
    seed: int = 41,
    duration: float = 400.0,
):
    """Drive generated outbound flows through a real farm and check the
    gateway's observable behaviour against the verdicts issued.

    Returns (verdict_log_summary, mismatches).
    """
    from repro.farm import Farm, FarmConfig
    from repro.services.dhcp import DhcpClient

    ports = ports if ports is not None else [25, 80, 443, 6667]
    content = content if content is not None else {
        "http-get": DEFAULT_CONTENT["http-get"],
        "grum-cnc": DEFAULT_CONTENT["grum-cnc"],
        "smtp-dialogue": DEFAULT_CONTENT["smtp-dialogue"],
    }

    farm = Farm(FarmConfig(seed=seed))
    sub = farm.create_subfarm("verify")
    sink = sub.add_catchall_sink()
    sub.add_smtp_sink()

    witness_ip = _OUTSIDE_IP
    witness = farm.add_external_host("witness", str(witness_ip))
    witness_seen: List[Tuple[int, bytes]] = []
    witness_heard: List[bytes] = []

    def witness_accept(conn):
        # NAT preserves the inmate's source port, so (dst port,
        # src port) identifies the flow for verdict correlation.
        witness_seen.append((conn.local_port, conn.remote_port))
        conn.on_data = lambda c, data: witness_heard.append(bytes(data))

    witness.tcp.listen_any(witness_accept)

    plan = [(port, tag, payload) for port in ports
            for tag, payload in content.items()]

    def image(host):
        def run_plan(configured_host):
            def send_one(index):
                if index >= len(plan):
                    return
                port, _tag, payload = plan[index]
                conn = configured_host.tcp.connect(witness_ip, port)
                if payload:
                    conn.send(payload)
                configured_host.sim.schedule(
                    5.0, send_one, index + 1, label="verify-plan")

            send_one(0)

        DhcpClient(host, on_configured=run_plan).start()

    policy = policy_factory()
    sub.create_inmate(image_factory=image, policy=policy)
    farm.run(until=duration)

    # Cross-check per flow: NAT preserves the inmate's source port, so
    # every verdict's (resp port, orig port) pair correlates with what
    # the witness and the sinks actually saw.
    mismatches: List[EnforcementMismatch] = []
    verdicts = sub.containment_server.verdict_log
    witness_flows = set(witness_seen)
    sink_flows = {(record.dst_port, record.src_port)
                  for record in sink.records}
    smtp_sink = sub.sinks["smtp_sink"]

    for record in verdicts:
        key = (record.flow.resp_port, record.flow.orig_port)
        label = record.decision.verdict.label
        probe = Probe("outbound", record.flow.resp_port, PROTO_TCP,
                      "?", b"")
        if record.decision.verdict.grants_world:
            if key not in witness_flows:
                mismatches.append(EnforcementMismatch(
                    probe, label, "never reached the real destination"))
        elif label == "REFLECT":
            landed = (key in sink_flows
                      or (record.flow.resp_port == 25
                          and smtp_sink.sessions_accepted > 0))
            if not landed:
                mismatches.append(EnforcementMismatch(
                    probe, label, "never reached the sink"))
            if key in witness_flows:
                mismatches.append(EnforcementMismatch(
                    probe, label, "LEAKED to the real destination"))
        elif label == "DROP":
            if key in witness_flows:
                mismatches.append(EnforcementMismatch(
                    probe, label, "LEAKED to the real destination"))

    summary = {
        "verdicts": dict(sub.containment_server.verdict_counts),
        "witness_ports": sorted({port for port, _src in witness_flows}),
        "witness_heard": witness_heard,
        "sink_ports": sorted({port for port, _src in sink_flows}),
        "smtp_sink_sessions": smtp_sink.sessions_accepted,
    }
    return summary, mismatches
