"""Observation parity: what an observed scan-shaped run exports.

``tests/golden/obs_parity.json`` holds, for three observed farms,
every periodic and the final ``gq.telemetry/2`` snapshot and the
``gq.journal/1`` snapshots.  The first two are scan-shaped (a
worm-style scan under a DSL policy with a catch-all sink, journal and
telemetry on, periodic telemetry snapshots), and their bytes are
those recorded *before* telemetry stopped counting for itself and the
journal stopped rendering per flow.  The replay compares the
serialised bytes, not the loaded objects, so a counter that turns up
as ``123`` where ``123.0`` was recorded is a failure.

The second run keeps a 32-event journal, snapshotted every five
seconds, behind a containment server that takes 60 ms a verdict (the
probes hold their connection open meanwhile): the event ring evicts
almost everything, and the alias map (bounded at the same capacity)
loses queued flows before their verdict is issued, so the server's
``verdict.issued`` falls back to the rendered five-tuple alias.

The third run (:func:`observe_every_family`) makes every counter and
gauge family fire that a component used to push into a cell of its
own, recorded from the commit before the last of them became a read:
the two runs above never proxy, never trip the safety filter and
never reach an SMTP sink, a resolver, a trigger or a fault.

Re-record only from a parent commit::

    PYTHONPATH=src python -m tests.golden.regen obs
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
from unittest import mock

import pytest

from repro.core.dsl import DslPolicy
from repro.experiments.scalability import WEB_IP, _web_server
from repro.farm import Farm, FarmConfig
from repro.inmates.hosting import HostingBackend
from repro.net.addresses import IPv4Address
from repro.net.dns import StubResolverClient
from repro.obs import journal as journal_module
from repro.services.dhcp import DhcpClient
from repro.sim.process import Process
from repro.world.dns_authority import AuthoritativeDns
from repro.world.mail import MailExchanger

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
#: What the scan-shaped runs set beyond their seed.
SCAN_CONFIG = {"journal": True, "telemetry": True}

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
    farm = _farm_with_journal_capacity(journal_capacity, FarmConfig(
        seed=seed, **SCAN_CONFIG))
    series = telemetry_series(farm, SNAPSHOT_INTERVAL)
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
    return _exported(farm, series, journals)


def telemetry_series(farm, interval: float) -> list:
    """The farm's telemetry snapshots every ``interval`` virtual
    seconds from now, as the run takes them."""
    series = []
    Process(farm.sim, interval,
            lambda: series.append(farm.telemetry_snapshot()),
            label="telemetry-snapshot").start()
    return series


def _farm_with_journal_capacity(capacity: int, config: FarmConfig) -> Farm:
    """A farm whose journal keeps ``capacity`` events (the journal's
    ``DEFAULT_CAPACITY``, patched while the farm is built)."""
    with mock.patch.object(journal_module, "DEFAULT_CAPACITY", capacity):
        return Farm(config)


def _exported(farm, series, journals) -> dict:
    return {
        "telemetry": series + [farm.telemetry_snapshot()],
        "journal": journals + [farm.journal_snapshot()],
        "journal_digest": farm.journal.digest(),
    }


# ----------------------------------------------------------------------
# The third run: every family a component counts, each made to fire
# ----------------------------------------------------------------------
ECHO_IP, MX_IP, DNS_IP = "203.0.113.7", "203.0.113.25", "203.0.113.53"
FAMILY_DURATION = 60.0
FAMILY_PROGRAMS = {
    # Echo pings are forwarded, and so are echo replies reaching an
    # inmate that was reverted after it sent them.
    "fam-0": """
outbound port 7/udp          -> forward
inbound port 1024-65535/udp  -> forward
port 25/tcp                  -> reflect smtp_sink
default                      -> reflect sink
""",
    "fam-1": """
port 80/tcp  -> rewrite
port 25/tcp  -> reflect smtp_sink
default      -> reflect sink
""",
}
#: A bare-LF SMTP dialogue, sent in one write.
BARE_LF_SPAM = (b"HELO bot\nMAIL FROM:<bot@spam.example>\n"
                b"RCPT TO:<victim@victim.example>\nDATA\n"
                b"Subject: hi\n\nbuy now\n.\nQUIT\n")


def _after_dhcp(behaviour):
    def image(host):
        DhcpClient(host, on_configured=behaviour).start()
    return image


def _every(host, interval: float, until: float, action) -> None:
    def tick():
        if host.sim.now < until:
            action(host)
            host.sim.schedule(interval, tick, label="family-tick")
    host.sim.schedule(0.5, tick, label="family-start")


def _lookup(host, name: str) -> None:
    StubResolverClient(host, host.dns_server).resolve(name, lambda _: None)


def _spam(host) -> None:
    conn = host.tcp.connect(IPv4Address(MX_IP), 25)
    conn.on_established = lambda c: c.send(BARE_LF_SPAM)
    conn.on_remote_close = lambda c: c.close()


def _fetch(host) -> None:
    conn = host.tcp.connect(IPv4Address(WEB_IP), 80)
    conn.on_established = lambda c: c.send(b"GET /ping HTTP/1.1\r\n\r\n")
    conn.on_data = lambda c, d: c.close()


def _pinger(host) -> None:
    _every(host, 2.0, 20.0, lambda h: h.udp.sendto(
        b"ping", IPv4Address(ECHO_IP), 7))


def _spammer(host) -> None:
    _lookup(host, "static.example")
    _lookup(host, "nowhere.example")
    _every(host, 3.0, 40.0, _spam)


def _browser(host) -> None:
    _lookup(host, "web.example")
    host.sim.schedule(2.0, _lookup, host, "web.example")
    _every(host, 4.0, 13.0, _fetch)
    _spam(host)


def _scanner(host) -> None:
    sent = [0]

    def probe(h):
        sent[0] += 1
        target = (IPv4Address("11.1.1.1") if sent[0] % 3 == 0 else
                  IPv4Address(h.rng.randrange(0x0B000000, 0x7F000000)))
        if sent[0] % 4 == 0:
            h.udp.sendto(b"u" * 64, target, 1434)
            return
        conn = h.tcp.connect(target, 445)
        conn.on_established = lambda c: (c.send(b"p" * 64), c.close())

    _every(host, 0.3, 55.0, probe)


def observe_every_family() -> dict:
    """Two subfarms built so that every counter and gauge family a
    component keeps fires: REWRITE proxying, two catch-all and two
    SMTP sinks (one dropping, banner-grabbing, fed bare-LF lines),
    all four resolver outcomes, a trigger revert whose completions
    fail into a retry and an abandonment, malformed and unknown-target
    life-cycle requests, a crashed containment server driving degraded
    mode, both safety-filter trips, and an echo reply flooded onto the
    VLAN of the inmate that was reverted before it arrived."""
    plan = [{"kind": "cs_crash", "subfarm": "fam-1", "at": 24.0,
             "restore_after": 15.0},
            {"kind": "revert_fail", "subfarm": "fam-0", "count": 2}]
    farm = _farm_with_journal_capacity(256, FarmConfig(
        seed=13, journal=True, telemetry=True,
        safety_max_flows_per_window=25, safety_max_flows_per_destination=4,
        safety_window=10.0, verdict_deadline=1.0, fault_plan=plan))
    series = telemetry_series(farm, 10.0)
    farm.controller.RETRY_LIMIT = 1
    farm.controller.RETRY_BACKOFF = 1.0
    _web_server(farm.add_external_host("web", WEB_IP))
    echo = farm.add_external_host("echo", ECHO_IP)
    echo.udp.bind(7, lambda h, p, d: h.udp.sendto(d.payload, p.src, d.sport,
                                                  src_port=7))
    MailExchanger(farm.add_external_host("mx", MX_IP),
                  banner="mx.victim.example ESMTP")
    authority = AuthoritativeDns(farm.add_external_host("dns", DNS_IP))
    authority.add_a("web.example", IPv4Address(WEB_IP))
    quick = HostingBackend()
    quick.boot_latency = quick.revert_latency = 2.0

    subs = {name: farm.create_subfarm(name) for name in FAMILY_PROGRAMS}
    for name, sub in subs.items():
        sub.add_catchall_sink()
        sub.set_default_policy(DslPolicy(FAMILY_PROGRAMS[name]))
    fam0, fam1 = subs["fam-0"], subs["fam-1"]
    fam0.add_smtp_sink(drop_probability=0.3, banner_grabbing=True)
    fam1.add_smtp_sink()
    fam0.resolver.static_zone["static.example"] = IPv4Address(WEB_IP)
    fam1.resolver.upstream_ip = authority.host.ip

    pinger = fam0.create_inmate(_after_dhcp(_pinger), backend=quick)
    fam0.create_inmate(_after_dhcp(_spammer), backend=quick)
    fam1.create_inmate(_after_dhcp(_browser), backend=quick)
    fam1.create_inmate(_after_dhcp(_scanner), backend=quick)
    fam0.trigger_engine.add_text("*:7/udp / 60s > 2 -> revert",
                                 {pinger.vlan})
    server = fam0.containment_server
    farm.sim.schedule(30.0, server.issue_lifecycle, "hibernate", pinger.vlan)
    farm.sim.schedule(31.0, server.issue_lifecycle, "revert", 4000)

    journals = []
    farm.sim.schedule(30.0, lambda: journals.append(farm.journal_snapshot()))
    farm.run(until=FAMILY_DURATION)
    return _exported(farm, series, journals)


#: Run name -> what observes it.
RUNS = {
    "seed11": functools.partial(
        observe, seed=11, journal_capacity=4096, journal_every=40.0,
        interval=1.0, service_time=0.0, linger=0.0),
    "seed12-small-journal": functools.partial(
        observe, seed=12, journal_capacity=32, journal_every=5.0,
        interval=0.25, service_time=0.06, linger=5.0),
    "seed13-every-family": observe_every_family,
}


def record() -> dict:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    return {"recorded_from": commit,
            "runs": {name: run() for name, run in RUNS.items()}}


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def corpus() -> dict:
    with open(CORPUS_PATH) as handle:
        return json.load(handle)["runs"]


@functools.lru_cache(maxsize=None)
def observed(name: str) -> dict:
    return RUNS[name]()


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

    every = corpus()["seed13-every-family"]["telemetry"]
    for family, identities in FAMILY_IDENTITIES.items():
        for identity in identities:
            assert every[-1][family][identity] > 0, identity
    for identity in ("gw.nat.pool.used{subfarm=fam-1}", "sim.queue.depth"):
        assert type(every[-1]["gauges"][identity]) is int, identity
    assert [snap["gauges"]["resilience.degraded{subfarm=fam-1}"]
            for snap in every].count(1.0) >= 1


#: What the third run must show non-zero in its final snapshot: every
#: family a component used to push as a second copy of its own count.
FAMILY_IDENTITIES = {
    "counters": (
        "cs.proxy.bytes_to_client{server=fam-1-cs}",
        "cs.proxy.bytes_to_server{server=fam-1-cs}",
        "triggers.fired{action=revert}",
        "inmates.lifecycle{action=revert}",
        "inmates.lifecycle_errors{kind=malformed}",
        "inmates.lifecycle_errors{kind=unknown-target}",
        "inmates.lifecycle_errors{kind=retry}",
        "inmates.lifecycle_errors{kind=abandoned}",
        "faults.injected{kind=cs-crash,subfarm=fam-1}",
        "faults.injected{kind=revert_fail,subfarm=fam-0}",
        "smtp.sessions{decision=accepted}",
        "smtp.sessions{decision=dropped}",
        "smtp.data_transfers",
        "smtp.banner_fetches",
        "smtp.protocol_anomalies{kind=bare_lf}",
        "dns.queries{outcome=static}",
        "dns.queries{outcome=cached}",
        "dns.queries{outcome=nxdomain}",
        "dns.queries{outcome=recursed}",
        "sink.connections",
        "sink.datagrams",
        "gw.bridge.floods",
        "gw.safety.trips{reason=per-inmate,subfarm=fam-1}",
        "gw.safety.trips{reason=per-destination,subfarm=fam-1}",
        "gw.nat.binds{subfarm=fam-1}",
        "router.flows.verdict{proto=tcp,subfarm=fam-1,verdict=REWRITE,vlan=4}",
    ),
    "gauges": (
        "gw.nat.bindings{subfarm=fam-1}",
        "gw.nat.pool.used{subfarm=fam-1}",
        "gw.nat.pool.capacity{subfarm=fam-1}",
        "sim.queue.depth",
    ),
}
