"""Telemetry smoke: a full farm run emits a valid, deterministic
JSON snapshot.

The acceptance bar for the observability layer: with telemetry on, a
complete containment scenario (inmate boots via DHCP, fetches over
HTTP, verdict enforced) must produce a snapshot carrying per-verdict
flow counters and shim-latency histogram quantiles — and the same seed
must replay to byte-identical JSON.  Per-flow facts are the journal's:
a telemetry-only run keeps no per-flow observation state, and a
journaled one carries the timestamps the per-flow spans used to.
"""

from __future__ import annotations

import json

import pytest

from repro.core.policy import AllowAll
from repro.farm import Farm, FarmConfig
from repro.net.addresses import IPv4Address
from repro.net.http import HttpParser, HttpRequest, HttpResponse
from repro.obs.export import SNAPSHOT_SCHEMA, to_json

pytestmark = [pytest.mark.obs, pytest.mark.integration]

EXTERNAL_WEB_IP = "203.0.113.80"


def _http_server(host, body=b"PAYLOAD"):
    def on_accept(conn):
        parser = HttpParser("request")

        def on_data(c, data):
            for _request in parser.feed(data):
                c.send(HttpResponse(200, body=body).to_bytes())

        conn.on_data = on_data
        conn.on_remote_close = lambda c: c.close()

    host.tcp.listen(80, on_accept)


def _fetch_image(results):
    def image(host):
        from repro.services.dhcp import DhcpClient

        def fetch(configured_host):
            def connect():
                conn = configured_host.tcp.connect(
                    IPv4Address(EXTERNAL_WEB_IP), 80)
                parser = HttpParser("response")
                conn.on_established = lambda c: c.send(
                    HttpRequest("GET", "/x", {"Host": "x"}).to_bytes())
                conn.on_data = lambda c, d: results.extend(parser.feed(d))

            configured_host.sim.schedule(1.0, connect)

        DhcpClient(host, on_configured=fetch).start()

    return image


def build_farm(results, seed=7, journal=False):
    farm = Farm(FarmConfig(seed=seed, telemetry=True, journal=journal,
                           telemetry_snapshot_interval=30.0))
    sub = farm.create_subfarm("smoke")
    sub.add_catchall_sink()
    web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
    _http_server(web)
    sub.create_inmate(image_factory=_fetch_image(results),
                      policy=AllowAll())
    return farm


def run_farm(seed=7):
    results = []
    farm = build_farm(results, seed=seed)
    farm.run(until=60)
    return farm, results


def test_farm_run_emits_valid_snapshot():
    farm, results = run_farm()
    assert results, "the contained HTTP fetch never completed"

    text = to_json(farm.telemetry)
    snap = json.loads(text)
    assert snap["schema"] == SNAPSHOT_SCHEMA
    assert snap["enabled"] is True
    assert snap["time"] == 60

    # Per-verdict flow counters made it through the whole stack.
    verdicts = {k: v for k, v in snap["counters"].items()
                if k.startswith("router.flows.verdict")}
    assert verdicts, f"no verdict counters in {sorted(snap['counters'])}"
    assert any("verdict=FORWARD" in key for key in verdicts)
    assert sum(verdicts.values()) >= 1

    # Shim-latency histogram quantiles are present and sane.
    rtt = snap["histograms"]["router.shim.rtt{subfarm=smoke}"]
    assert rtt["count"] >= 1
    assert 0 <= rtt["p50"] <= rtt["p95"] <= rtt["p99"]
    assert rtt["buckets"], "histogram lost its bucket counts"

    # Metrics only: per-flow facts live in the journal (the router's
    # flow-chain test covers them), not in the snapshot.
    assert sorted(snap) == ["counters", "enabled", "gauges",
                            "histograms", "schema", "time"]

    # Simulator-level instrumentation ran.
    assert snap["counters"]["sim.events.fired"] > 0
    assert "sim.queue.depth" in snap["gauges"]

    # Periodic snapshots were captured on the virtual clock.
    assert len(farm.telemetry_snapshots) == 2
    assert farm.telemetry_snapshots[0]["time"] == 30.0


class _NeverFilled(dict):
    """The router's flow-id map in a run that must not fill it."""

    def __setitem__(self, key, value):
        raise AssertionError(f"per-flow observation state: {key!r}")


def test_telemetry_only_flow_keeps_no_per_flow_observation_state():
    results = []
    farm = build_farm(results)
    router = farm.subfarms["smoke"].router
    router._trace_ids = _NeverFilled()
    farm.run(until=60)
    # A whole flow life: created, verdict, handoff, data ...
    assert results and router.counters["flows_created"] == 1
    assert router.active_flow_count() == 1
    # ... and eviction.
    assert router.expire_idle_flows(max_idle=-1.0) == 1
    assert router._trace_ids == {}
    # The metrics the spans sat beside are all still there.
    rtt = farm.telemetry.get("router.shim.rtt").summary(subfarm="smoke")
    assert rtt["count"] == 1 and rtt["sum"] == pytest.approx(0.0026)


def test_journal_chain_carries_the_span_timestamps():
    """The deleted per-flow spans of this exact run read
    ``flow.bridge``/``flow.safety`` at 31.0049, ``flow.shim_rtt``
    31.0049 .. 31.0075, ``flow.verdict``/``flow.nat`` at 31.0075 (and
    a REWRITE flow's ``flow.proxy`` ran from the verdict to eviction);
    the journal's causal chain has every one of those instants."""
    results = []
    farm = build_farm(results, journal=True)
    router = farm.subfarms["smoke"].router
    farm.run(until=60)
    assert router.expire_idle_flows(max_idle=-1.0) == 1
    assert router._trace_ids == {}  # evicted flows leave nothing behind

    events = farm.journal_snapshot()["events"]
    flow = "smoke/vlan2/mux20000/t31.004900"
    chain = [e for e in events if e["flow"] == flow]
    assert [(e["kind"], e["t"]) for e in chain[:5]] == [
        ("flow.created", 31.0049),      # bridge, safety, shim_rtt start
        ("verdict.issued", 31.0073),
        ("verdict.applied", 31.0075),   # shim_rtt end, verdict, proxy start
        ("fastpath.install", 31.1075),
        ("flow.evicted", 60),           # proxy end
    ]
    # One causal chain, root to leaf.
    assert chain[0]["parent"] is None
    assert [e["parent"] for e in chain[1:5]] == \
        [e["seq"] for e in chain[:4]]
    # What the span labels said is in the event fields.
    assert chain[0]["fields"] == {"proto": "tcp",
                                  "destination": EXTERNAL_WEB_IP}
    assert chain[2]["fields"]["verdict"] == "FORWARD"
    assert chain[2]["fields"]["policy"] == "AllowAll"
    # And the histogram the span duplicated agrees with the chain.
    rtt = farm.telemetry.get("router.shim.rtt").summary(subfarm="smoke")
    assert rtt["sum"] == pytest.approx(chain[2]["t"] - chain[0]["t"])


def test_snapshot_is_deterministic_across_replays():
    farm_a, _ = run_farm(seed=7)
    farm_b, _ = run_farm(seed=7)
    assert to_json(farm_a.telemetry) == to_json(farm_b.telemetry)


def test_disabled_farm_has_null_telemetry():
    farm = Farm(FarmConfig(seed=7))
    assert farm.telemetry.enabled is False
    snap = farm.telemetry_snapshot()
    assert snap["enabled"] is False
    assert snap["counters"] == {}
