#!/usr/bin/env python3
"""The containment policy language, and checking one policy.

The paper asked for a policy language "like in Bro" (§8), for a way
"to verify that developed policies operate as intended" (§5.4), and
for "a traffic generation tool that can automatically produce test
cases for a given concrete containment policy" (§8).  This example
writes Grum's policy as a program and checks it on the one surface it
publishes: its cells (``compile_policy``), two invariants stated as
predicates over the cells, and one test flow per outbound TCP cell
through a live farm judged by ``certify_farm`` + ``check_wire``.

Run:  python examples/policy_language.py   (exits 1 when a check fails)
"""

import ast

from repro import Farm, FarmConfig
from repro.core.dsl import DslPolicy
from repro.core.verdicts import Verdict
from repro.net.addresses import IPv4Address
from repro.net.packet import PROTO_TCP
from repro.services.dhcp import DhcpClient
from repro.verify import certify_farm, check_wire, compile_policy

PROGRAM = """
# Grum containment, as a policy program.
outbound port 25/tcp                         -> reflect smtp_sink
outbound port 80/tcp content ~ "GET /grum/"  -> forward
outbound port 6660-6669/tcp                  -> drop
default                                      -> reflect sink
"""

WITNESS_IP = "203.0.113.200"
#: What a test flow sends on a cell no prefix guards (``*``) or that
#: catches what the atom's prefixes miss (``other``).
OTHER_LINE = b"HELLO gq\r\n"


def grants_world(cell) -> bool:
    """A cell grants the world when it forwards (or limits) or its
    target is outside the farm."""
    return (Verdict.from_label(cell.verdict).grants_world
            or cell.target_class == "world")


#: Each invariant names the cells that break it.
INVARIANTS = {
    "no-smtp-escape": lambda cell: (
        cell.direction == "outbound" and grants_world(cell)
        and cell.port_lo <= 25 <= cell.port_hi),
    "no-blanket-forward": lambda cell: bool(
        Verdict.from_label(cell.verdict) & Verdict.FORWARD
        and cell.content in ("*", "other")),
}


def violations(cells):
    """``(invariant, cell)`` for every cell an invariant names."""
    return [(name, cell) for name, broken in INVARIANTS.items()
            for cell in cells if broken(cell)]


def flow_for(cell):
    """The (port, payload) one flow needs to land in ``cell``."""
    if cell.content.startswith("prefix:"):
        prefix = ast.literal_eval(cell.content[len("prefix:"):])
        return cell.port_lo, prefix.encode("latin-1")
    return cell.port_lo, OTHER_LINE


def run_flows(policy, plan):
    """One inmate under ``policy`` dials the witness once per ``(port,
    payload)`` of ``plan``, five seconds apart, on a journaled farm with
    sinks ``sink`` and ``smtp_sink``.  Returns (farm, subfarm, heard)."""
    farm = Farm(FarmConfig(seed=41, journal=True))
    sub = farm.create_subfarm("verify")
    sub.add_catchall_sink()
    sub.add_smtp_sink()
    heard = []

    def accept(conn):
        conn.on_data = lambda c, data: heard.append(bytes(data))

    farm.add_external_host("witness", WITNESS_IP).tcp.listen_any(accept)

    def image(host):
        def configured(h):
            for index, (port, payload) in enumerate(plan):
                def dial(port=port, payload=payload):
                    h.tcp.connect(IPv4Address(WITNESS_IP), port).send(
                        payload)
                h.sim.schedule(5.0 * index, dial, label="test-flow")

        DhcpClient(host, on_configured=configured).start()

    sub.create_inmate(image_factory=image, policy=policy)
    farm.run(until=40.0 + 5.0 * len(plan))
    return farm, sub, heard


def main() -> None:
    print(__doc__)
    print("Policy program:")
    for line in PROGRAM.strip().splitlines():
        print(f"    {line}")

    policy = DslPolicy(PROGRAM)
    cells = compile_policy(policy).outcomes

    print(f"\n1. Decision surface ({len(cells)} cells):")
    for cell in cells:
        print(f"    {cell.direction:<8} "
              f"{'tcp' if cell.proto == PROTO_TCP else 'udp'} "
              f"{cell.port_lo:>5}-{cell.port_hi:<5} "
              f"{cell.content:<20} -> {cell.verdict}")

    print("\n2. Safety invariants:")
    broken = violations(cells)
    for name, cell in broken:
        print(f"    VIOLATION [{name}] {cell!r}")
    if not broken:
        print("    no violations: SMTP never escapes, nothing "
              "unrecognized is forwarded")

    print("\n3. One flow per outbound TCP cell, through a live farm:")
    plan = [flow_for(cell) for cell in cells
            if cell.direction == "outbound" and cell.proto == PROTO_TCP]
    print("\n".join(f"    :{port:<5} {payload!r}" for port, payload in plan))
    farm, sub, heard = run_flows(policy, plan)
    certificate = certify_farm(farm, label="policy-language")
    coverage = check_wire(certificate, farm)
    print(f"    certificate          : {certificate['result']}")
    print(f"    runtime coverage     : {coverage.covered}/"
          f"{coverage.checked}, {len(coverage.violations)} violations")
    for violation in coverage.violations:
        print(f"    VIOLATION: {violation}")
    ports = sorted({record.dst_port for record in sub.sinks["sink"].records})
    print(f"    the witness heard    : {heard}")
    print(f"    the sink heard ports : {ports}")

    print("\nRule coverage after the live run:")
    for line, hits in policy.coverage():
        print(f"    {hits:>4}  {line}")
    if broken or certificate["result"] != "CONTAINED" or not coverage.ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
