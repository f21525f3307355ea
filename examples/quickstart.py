#!/usr/bin/env python3
"""Quickstart: build a farm, contain a specimen, read the evidence.

This walks the core API end to end:

1. Assemble a :class:`repro.Farm` (gateway, backbone, management net).
2. Create a subfarm with a catch-all sink.
3. Boot an inmate whose "malware" phones home over HTTP.
4. Contain it with the default-deny-to-sink development posture.
5. Inspect what the sink caught, then iterate the policy to open just
   the C&C lifeline — the §3 methodology in miniature.

Run:  python examples/quickstart.py
"""

from repro import Farm, FarmConfig
from repro.core.policy import (
    Action,
    ContainmentPolicy,
    Content,
    ReflectAll,
    Rule,
    shorter_than,
)
from repro.net.addresses import IPv4Address
from repro.net.http import HttpParser, HttpRequest, HttpResponse
from repro.services.dhcp import DhcpClient

CNC_IP = "198.51.100.7"


def cnc_server(host):
    """A command-and-control server in the simulated outside world."""
    def on_accept(conn):
        parser = HttpParser("request")

        def on_data(c, data):
            for request in parser.feed(data):
                c.send(HttpResponse(
                    200, body=b'{"cmd": "sleep", "interval": 60}'
                ).to_bytes())

        conn.on_data = on_data
        conn.on_remote_close = lambda c: c.close()

    host.tcp.listen(80, on_accept)


def phone_home_image(log):
    """An inmate image: DHCP, then periodically fetch C&C commands."""
    def image(host):
        def fetch(configured_host):
            conn = configured_host.tcp.connect(IPv4Address(CNC_IP), 80)
            parser = HttpParser("response")

            def on_data(c, data):
                for response in parser.feed(data):
                    log.append(("cnc-response", response.body))
                    c.close()

            conn.on_established = lambda c: c.send(
                HttpRequest("GET", "/gate.php?id=bot1",
                            {"Host": "cnc.example"}).to_bytes())
            conn.on_data = on_data
            configured_host.sim.schedule(30.0, lambda: fetch(configured_host))

        DhcpClient(host, on_configured=fetch).start()

    return image


def main() -> None:
    print(__doc__)

    # --- Phase 1: default-deny development posture ------------------
    farm = Farm(FarmConfig(seed=1))
    subfarm = farm.create_subfarm("development")
    sink = subfarm.add_catchall_sink()
    cnc_server(farm.add_external_host("cnc", CNC_IP))

    log = []
    subfarm.create_inmate(image_factory=phone_home_image(log),
                          policy=ReflectAll())
    farm.run(until=300)

    print("Phase 1 — everything reflected to the sink:")
    print(f"  sink connections : {sink.connections_accepted}")
    for port, count in sink.by_destination_port().items():
        payloads = sink.payloads_for_port(port)
        first = payloads[0].splitlines()[0] if payloads and payloads[0] \
            else b"(empty)"
        print(f"  port {port}: {count} flows, first payload {first!r}")
    print(f"  C&C responses the bot saw: {len(log)} (contained!)")

    # --- Phase 2: whitelist exactly the C&C shape -------------------
    class GatePolicy(ContainmentPolicy):
        """Forward only GET /gate.php — the observed C&C shape; a
        request still shorter than 16 bytes waits for the rest."""

        default = Action("reflect", service="sink")

        def declare(self):
            return super().declare() + [Rule(
                Action("forward", "C&C lifeline"), 80,
                content=Content.prefix(b"GET /gate.php", shorter_than(16)))]

    farm2 = Farm(FarmConfig(seed=1))
    subfarm2 = farm2.create_subfarm("deployment")
    subfarm2.add_catchall_sink()
    cnc_server(farm2.add_external_host("cnc", CNC_IP))
    log2 = []
    subfarm2.create_inmate(image_factory=phone_home_image(log2),
                           policy=GatePolicy())
    farm2.run(until=300)

    print("\nPhase 2 — C&C lifeline whitelisted:")
    print(f"  C&C responses the bot saw: {len(log2)}")
    print(f"  first response           : {log2[0][1]!r}" if log2 else "  -")
    counts = subfarm2.containment_server.verdict_counts
    print(f"  verdicts issued          : {counts}")
    print("\nDone: same specimen, contained first, understood, then "
          "granted exactly its C&C lifeline.")


if __name__ == "__main__":
    main()
