#!/usr/bin/env python3
"""Farm observability: run a contained fetch, snapshot it, read it back.

This is the worked example behind ``docs/OBSERVABILITY.md``:

1. Build a farm with ``telemetry=True, journal=True`` — the virtual
   clock drives every timestamp, so both instruments are
   deterministic per seed.
2. Let one inmate boot over DHCP and fetch a file through the full
   containment path (bridge -> safety filter -> shim -> verdict).
3. Dump the metrics as JSON, then read the snapshot back the way an
   operator would — verdict mix, shim latency quantiles (*how many*)
   — and ask the journal for one flow's timeline (*why and when*).

Run:  python examples/telemetry_snapshot.py
"""

import json

from repro import Farm, FarmConfig
from repro.core.policy import AllowAll
from repro.net.addresses import IPv4Address
from repro.net.http import HttpParser, HttpRequest, HttpResponse
from repro.obs.export import to_json
from repro.obs.provenance import flows_in, render_why
from repro.services.dhcp import DhcpClient

WEB_IP = "203.0.113.80"


def web_server(host):
    def on_accept(conn):
        parser = HttpParser("request")

        def on_data(c, data):
            for _request in parser.feed(data):
                c.send(HttpResponse(200, body=b"PAYLOAD").to_bytes())

        conn.on_data = on_data
        conn.on_remote_close = lambda c: c.close()

    host.tcp.listen(80, on_accept)


def fetch_image(host):
    """Inmate image: DHCP, then one HTTP fetch of the outside world."""
    def fetch(configured_host):
        def connect():
            conn = configured_host.tcp.connect(IPv4Address(WEB_IP), 80)
            parser = HttpParser("response")
            conn.on_established = lambda c: c.send(
                HttpRequest("GET", "/payload", {"Host": "evil"}).to_bytes())
            conn.on_data = lambda c, d: parser.feed(d)

        configured_host.sim.schedule(1.0, connect)

    DhcpClient(host, on_configured=fetch).start()


def main():
    # -- 1. run a farm with both instruments on -----------------------
    farm = Farm(FarmConfig(seed=7, telemetry=True, journal=True,
                           telemetry_snapshot_interval=30.0))
    sub = farm.create_subfarm("demo")
    sub.add_catchall_sink()
    web_server(farm.add_external_host("webserver", WEB_IP))
    sub.create_inmate(image_factory=fetch_image, policy=AllowAll())
    farm.run(until=60)

    # -- 2. write the snapshot exactly as a tool would ----------------
    text = to_json(farm.telemetry, indent=2)
    snap = json.loads(text)
    print(f"snapshot: schema={snap['schema']} "
          f"t={snap['time']} ({len(text)} bytes)")

    # -- 3. read it back ----------------------------------------------
    print("\nVerdict mix (router.flows.verdict):")
    for key, count in sorted(snap["counters"].items()):
        if key.startswith("router.flows.verdict"):
            print(f"  {key} = {count:.0f}")

    print("\nShim latency (router.shim.rtt):")
    for key, hist in sorted(snap["histograms"].items()):
        if key.startswith("router.shim.rtt"):
            print(f"  {key}: count={hist['count']:.0f} "
                  f"p50={hist['p50'] * 1000:.1f}ms "
                  f"p99={hist['p99'] * 1000:.1f}ms")

    # -- 4. one flow's timeline, from the journal ---------------------
    print("\nOne flow, decision by decision:")
    events = farm.journal_snapshot()["events"]
    print(render_why(events, flows_in(events)[0]))

    print(f"\nPeriodic snapshots on the virtual clock: "
          f"{[s['time'] for s in farm.telemetry_snapshots]}")


if __name__ == "__main__":
    main()
