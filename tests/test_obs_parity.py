"""Observation parity: what an observed scan-shaped run exports.

``tests/golden/obs_parity.json`` holds, for two scan-shaped farms (a
worm-style scan under a DSL policy with a catch-all sink, journal and
telemetry on, periodic telemetry snapshots), every periodic and the
final ``gq.telemetry/2`` snapshot and the ``gq.journal/1`` snapshot
taken at the same instants — recorded from the commit *before*
telemetry stopped counting for itself and the journal stopped
rendering per flow (``recorded_from``).  The replay compares the
serialised bytes, not the loaded objects, so a counter that turns up
as ``123`` where ``123.0`` was recorded is a failure.

The second run keeps a 32-event journal, snapshotted every five
seconds, behind a containment server that takes 60 ms a verdict (the
probes hold their connection open meanwhile): the event ring evicts
almost everything, and the alias map (bounded at the same capacity)
loses queued flows before their verdict is issued, so the server's
``verdict.issued`` falls back to the rendered five-tuple alias.

Re-record only from a parent commit::

    PYTHONPATH=src python -m tests.golden.regen obs
"""

from __future__ import annotations

import functools
import json
import os
import subprocess

import pytest

from repro.core.dsl import DslPolicy
from repro.experiments.scalability import WEB_IP, _web_server
from repro.farm import Farm, FarmConfig
from repro.net.addresses import IPv4Address
from repro.services.dhcp import DhcpClient

pytestmark = pytest.mark.obs

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "obs_parity.json")

SCAN_PROGRAM = """
port 445/tcp     -> reflect sink
port 135-139/tcp -> drop
port 1434/udp    -> drop
port 80/tcp      -> forward
default          -> reflect sink
"""
SCAN_TCP_PORTS = (445, 135, 139, 80, 25)
SCAN_UDP_PORT = 1434
DURATION = 70.0
SNAPSHOT_INTERVAL = 15.0

#: name -> seed, journal capacity and snapshot interval, scan interval,
#: seconds per verdict, seconds a probe stays connected.
RUNS = {
    "seed11": dict(seed=11, journal_capacity=4096, journal_every=40.0,
                   interval=1.0, service_time=0.0, linger=0.0),
    "seed12-small-journal": dict(seed=12, journal_capacity=32,
                                 journal_every=5.0, interval=0.25,
                                 service_time=0.06, linger=5.0),
}


def _scan_image(interval: float, linger: float):
    web = IPv4Address(WEB_IP)

    def on_established(conn):
        conn.send(b"p" * 64)
        conn.host.sim.schedule(linger, conn.close)

    def image(host):
        def configured(h):
            sent = [0]

            def tick():
                if h.sim.now >= DURATION - 5.0:
                    return
                sent[0] += 1
                target = IPv4Address(h.rng.randrange(0x0B000000, 0x7F000000))
                if not sent[0] % 4:
                    h.udp.sendto(b"u" * 64, target, SCAN_UDP_PORT)
                else:
                    port = SCAN_TCP_PORTS[sent[0] % len(SCAN_TCP_PORTS)]
                    conn = h.tcp.connect(web if port == 80 else target, port)
                    conn.on_established = on_established
                h.sim.schedule(interval * h.rng.uniform(0.7, 1.3), tick,
                               label="scan")

            h.sim.schedule(1.0 + h.rng.random(), tick, label="scan-start")

        DhcpClient(host, on_configured=configured).start()

    return image


def observe(seed: int, journal_capacity: int, journal_every: float,
            interval: float, service_time: float, linger: float) -> dict:
    """Run one scan-shaped farm; the telemetry snapshots at every
    ``SNAPSHOT_INTERVAL``, the journal's at every ``journal_every``,
    and both at the end."""
    farm = Farm(FarmConfig(
        seed=seed, journal=True, telemetry=True,
        telemetry_snapshot_interval=SNAPSHOT_INTERVAL,
        journal_capacity=journal_capacity, journal_sample_interval=10.0))
    _web_server(farm.add_external_host("web", WEB_IP))
    journals = []

    def capture_journal():
        journals.append(farm.journal_snapshot())
        farm.sim.schedule(journal_every, capture_journal)

    farm.sim.schedule(journal_every, capture_journal)
    for index in range(2):
        sub = farm.create_subfarm(f"scan-{index}")
        sub.add_catchall_sink()
        sub.set_default_policy(DslPolicy(SCAN_PROGRAM))
        sub.set_cs_service_time(service_time)
        for _ in range(3):
            sub.create_inmate(image_factory=_scan_image(interval, linger))
    farm.run(until=DURATION)
    return {
        "telemetry": farm.telemetry_snapshots + [farm.telemetry_snapshot()],
        "journal": journals + [farm.journal_snapshot()],
        "journal_digest": farm.journal.digest(),
    }


def record() -> dict:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    return {"recorded_from": commit,
            "runs": {name: observe(**run) for name, run in RUNS.items()}}


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
        return json.load(handle)["runs"]


@functools.lru_cache(maxsize=None)
def observed(name: str) -> dict:
    return observe(**RUNS[name])


def _bytes(value) -> str:
    return json.dumps(value, sort_keys=True)


def _first_difference(recorded, live, path="") -> str:
    if type(recorded) is not type(live):
        return f"{path}: {recorded!r} recorded, {live!r} now"
    if isinstance(recorded, dict):
        for key in sorted(set(recorded) | set(live)):
            if key not in recorded or key not in live:
                return (f"{path}/{key}: only "
                        f"{'recorded' if key in recorded else 'now'}")
            found = _first_difference(recorded[key], live[key],
                                      f"{path}/{key}")
            if found:
                return found
    elif isinstance(recorded, list):
        if len(recorded) != len(live):
            return f"{path}: {len(recorded)} recorded, {len(live)} now"
        for index, pair in enumerate(zip(recorded, live)):
            found = _first_difference(*pair, f"{path}[{index}]")
            if found:
                return found
    elif recorded != live:
        return f"{path}: {recorded!r} recorded, {live!r} now"
    return ""


@pytest.mark.parametrize("name", sorted(RUNS))
@pytest.mark.parametrize("part", ["telemetry", "journal"])
def test_every_snapshot_is_byte_identical(name, part):
    recorded, live = corpus()[name][part], observed(name)[part]
    assert len(recorded) == len(live) >= 2
    for index, (want, got) in enumerate(zip(recorded, live)):
        assert _bytes(got) == _bytes(want), (
            f"{part} snapshot {index} of {name}: "
            + _first_difference(want, got))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_journal_digest_unchanged(name):
    assert observed(name)["journal_digest"] == corpus()[name]["journal_digest"]


def test_the_corpus_covers_what_it_claims():
    """Float-valued counters, ring eviction, and an alias miss are in
    the recorded bytes — not merely possible."""
    full, small = corpus()["seed11"], corpus()["seed12-small-journal"]
    final = full["telemetry"][-1]
    assert final["schema"] == "gq.telemetry/2"
    for identity in ("sim.events.scheduled", "sim.events.fired",
                     "gw.frames.received",
                     "router.flows.created{subfarm=scan-0}",
                     "flowtable.misses{subfarm=scan-1}"):
        value = final["counters"][identity]
        assert type(value) is float and value > 0, identity
    assert '"sim.events.fired": ' + repr(final["counters"][
        "sim.events.fired"]) in _bytes(final)
    assert "sim.queue.depth" in final["gauges"]
    verdicts = {event["fields"]["verdict"]
                for event in full["journal"][-1]["events"]
                if event["kind"] == "verdict.issued"}
    assert {"DROP", "REFLECT", "FORWARD"} <= verdicts
    assert full["journal"][-1]["evicted"] == 0

    last = small["journal"][-1]
    assert last["evicted"] == last["recorded"] - 32 > 1000
    issued = [event["flow"] for snap in small["journal"]
              for event in snap["events"] if event["kind"] == "verdict.issued"]
    missed = [flow for flow in issued if flow.startswith("vlan")]
    assert missed and len(missed) < len(issued)
    assert any(ring["dropped"] == 0 and ring["samples"]
               for ring in last["rings"].values())
