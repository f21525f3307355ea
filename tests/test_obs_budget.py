"""Observing never perturbs a run, and what it costs is counted.

Both instruments, held to counts rather than wall time (``make budget``):

* The seed farm run with the flight recorder on keeps the journal-off
  digest pinned in ``tests/golden/farm_digests.json``, and its journal
  digest is pinned beside it — the reproducibility that makes
  ``python -m repro.obs why`` output diffable evidence.
* Journal recording happens on decision events, so pumping an
  established flow's fast path records at most the flow's setup.
* A worm-style scan (every probe a new flow, DROP/REFLECT/FORWARD
  verdicts under a DSL policy) journals exactly three events for a TCP
  DROP and four for every other flow, keeps its digest with the
  journal on or off under either telemetry setting, and, fully
  observed, enters ``repro/obs/metrics.py`` and ``repro/obs/`` a
  bounded number of times per flow.  A counter or gauge is a read its
  component registered, so what is left is histogram ``observe`` and
  one ``register`` per label set that first appears.
* A flow workload enters ``metrics.py`` a bounded number of times per
  flow with telemetry off (the shared no-op ``observe``) and on, and
  shows at least :data:`MIN_ENABLED_READINGS` instruments when on.

What observing costs in time is the layer ledger's
``obs.journal.ns_per_event`` and ``scan_journaled`` workload
(``benchmarks/ledger/``).
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.core.dsl import DslPolicy
from repro.core.policy import AllowAll
from repro.experiments.scalability import WEB_IP, _web_server, flowgen_image
from repro.farm import Farm, FarmConfig
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.packet import ACK, PSH, EthernetFrame, IPv4Packet, TCPSegment
from repro.obs import metrics
from repro.obs.journal import Journal
from repro.parallel.tasks import farm_digest
from repro.services.dhcp import DhcpClient
from tests.golden import farm_pin, journaled_seed_farm
from tests.helpers import RouterHarness, TARGET_IP, TARGET_PORT

pytestmark = pytest.mark.obs

#: Journal events a fast-path pump may record: its one flow's setup
#: (3 today).
MAX_PUMP_EVENTS = 8
PUMP_PACKETS = 30_000

#: What the scan journals of each flow: a TCP DROP, which ends on the
#: wire at its verdict, installs nothing; every other flow's rules go
#: in.
DROP_TCP_EVENTS = ("flow.created", "verdict.issued", "verdict.applied")
INSTALLED_EVENTS = DROP_TCP_EVENTS + ("fastpath.install",)

#: The fully observed scan: frames in metrics.py per simulator event
#: (3.2 while telemetry kept its own counts, 0.074 while thirteen
#: components still pushed, 0.046 with the two histograms' observe and
#: a register per new label set; 0.057, the same 2,714 frames over the
#: 47,408 events left when pure ACKs stopped following segments that
#: already carried them), then per flow: the frames follow the flows,
#: and a TCP DROP released at its verdict takes events away, not
#: frames.  The per-event bound of 0.058 restated over that scan's
#: 47,408 events and 1,252 flows, so the same 2,714 frames sit where
#: they did (2.17 per flow).  And in repro/obs/ per journaled flow
#: (138, then 10.5, then 9.1: four record() calls, bind_flow, flow_for
#: and the two histograms; 10.8 as measured before the one-ring
#: journal: 3.6 record() calls, two tally, two observe, bind_flow and
#: the _remember it stored through, flow_for; 9.8 with bind_flow
#: storing in place below capacity.  The journal's clock is now the
#: simulator's own C-level getter; the lambda it replaced lived in
#: farm.py, so no figure here counted its 3.6 frames per flow).  Each
#: bound was the larger measured figure plus 25%.
MAX_ENABLED_FRAMES_PER_SCAN_FLOW = 0.058 * 47_408 / 1_252
MAX_OBS_FRAMES_PER_FLOW = 12.2

#: The flow workload, per flow: with telemetry off the no-op histogram
#: observe and 14 no-op registers (1,092 frames over 539 flows, 2.03),
#: with it on 1,186 (2.20); each bound is that figure plus 25%.  Per
#: flow, because the frames follow the flows, not the events: the
#: workload's events fell from 31,963 to 23,878 when pure ACKs stopped
#: following segments that already carried them, its frames did not.
#: Both bounds allow fewer frames than the per-event bounds this
#: workload was held to before (0.043 and 0.058 of 31,963 events).
MAX_DISABLED_FRAMES_PER_FLOW = 2.53
MAX_ENABLED_FRAMES_PER_FLOW = 2.75
MIN_ENABLED_READINGS = 20

SEED = 11
SCAN_PROGRAM = """
port 445/tcp     -> reflect sink
port 135-139/tcp -> drop
port 80/tcp      -> forward
default          -> reflect sink
"""
SCAN_PORTS = (445, 135, 139, 80, 25)
SCAN_INMATES = 8
SCAN_INTERVAL = 0.5
SCAN_DURATION = 120.0


def observed(run):
    """Run ``run()`` under a profile hook counting the Python frames it
    enters in ``repro/obs/metrics.py`` and anywhere in ``repro/obs/``;
    returns ``(run's result, {"metrics": n, "obs": n})``."""
    metrics_file = metrics.__file__
    obs_dir = os.path.dirname(metrics_file) + os.sep
    counts = {"metrics": 0, "obs": 0}

    def hook(frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(obs_dir):
                counts["obs"] += 1
                if filename == metrics_file:
                    counts["metrics"] += 1

    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, counts


# ----------------------------------------------------------------------
# The seed farm and the fast path
# ----------------------------------------------------------------------
def test_journal_keeps_the_seed_farm_digest_and_its_own_pin():
    farm = journaled_seed_farm()
    assert farm.journal.recorded
    assert farm_digest(farm)[0] == farm_pin("farm")
    assert farm.journal.digest() == farm_pin("farm_journal")


def test_fast_path_journals_only_the_flow_setup():
    harness = RouterHarness(seed=7)
    journal = Journal(clock=lambda: harness.sim.now)
    harness.sim.journal = harness.router.journal = journal
    record = harness.establish_flow(vlan=2, sport=40000)
    assert record.phase.value == "enforced"
    inmate_ip = record.orig.orig_ip
    payload = b"x" * 512
    frame = EthernetFrame(
        harness.mac, MacAddress("02:00:00:00:00:01"),
        IPv4Packet(inmate_ip, IPv4Address(TARGET_IP),
                   TCPSegment(40000, TARGET_PORT, 2000, 9001, ACK | PSH,
                              payload=payload)),
        vlan=2)
    reply = IPv4Packet(
        IPv4Address(TARGET_IP), record.nat_global or inmate_ip,
        TCPSegment(TARGET_PORT, 40000, 9500, 2001, ACK | PSH,
                   payload=payload))
    harness.drain()
    for _ in range(PUMP_PACKETS // 2):
        harness.router.inmate_frame(frame, 2)
        harness.router.upstream_packet(reply)
    assert len(harness.upstream) + len(harness.to_vlan) == PUMP_PACKETS
    assert journal.recorded <= MAX_PUMP_EVENTS


# ----------------------------------------------------------------------
# Where events fire: a scan
# ----------------------------------------------------------------------
def _scan_image(stop_at: float):
    """An inmate probing a fresh world address every ``SCAN_INTERVAL``
    seconds, ports round-robin: every probe is a new flow."""
    web = IPv4Address(WEB_IP)

    def image(host):
        def configured(h):
            sent = [0]

            def tick():
                if h.sim.now >= stop_at:
                    return
                sent[0] += 1
                port = SCAN_PORTS[sent[0] % len(SCAN_PORTS)]
                target = web if port == 80 else IPv4Address(
                    h.rng.randrange(0x0B000000, 0x7F000000))
                conn = h.tcp.connect(target, port)
                conn.on_established = lambda c: (c.send(b"p" * 64),
                                                 c.close())
                h.sim.schedule(SCAN_INTERVAL * h.rng.uniform(0.7, 1.3),
                               tick, label="scan")

            h.sim.schedule(1.0 + h.rng.random(), tick, label="scan-start")

        DhcpClient(host, on_configured=configured).start()

    return image


def scan_farm(journal: bool, telemetry: bool) -> Farm:
    farm = Farm(FarmConfig(seed=SEED, telemetry=telemetry,
                           journal=journal))
    _web_server(farm.add_external_host("web", WEB_IP))
    sub = farm.create_subfarm("scan")
    sub.add_catchall_sink()
    sub.set_default_policy(DslPolicy(SCAN_PROGRAM))
    for _ in range(SCAN_INMATES):
        sub.create_inmate(image_factory=_scan_image(SCAN_DURATION - 10.0))
    return farm


@pytest.fixture(scope="module")
def scan():
    """The fully observed scan, counted, and the digest of every
    journal x telemetry combination."""
    farm = scan_farm(journal=True, telemetry=True)
    _, frames = observed(lambda: farm.run(until=SCAN_DURATION))
    digests = {(True, True): farm_digest(farm)[0]}
    for side in ((False, False), (True, False), (False, True)):
        other = scan_farm(*side)
        other.run(until=SCAN_DURATION)
        digests[side] = farm_digest(other)[0]
    return {"flows": farm.subfarms["scan"].router.counters["flows_created"],
            "journal": farm.journal.events(),
            "frames": frames, "digests": digests}


def test_scan_journals_exact_events_per_verdict(scan):
    kinds, verdicts = {}, {}
    for event in scan["journal"]:
        kinds.setdefault(event.flow, []).append(event.kind)
        if event.kind == "verdict.applied":
            verdicts[event.flow] = (event.fields["verdict"],
                                    event.fields["proto"])
    assert len(kinds) == len(verdicts) == scan["flows"]
    for flow, (verdict, proto) in verdicts.items():
        expected = (DROP_TCP_EVENTS if (verdict, proto) == ("DROP", "tcp")
                    else INSTALLED_EVENTS)
        assert tuple(kinds[flow]) == expected, (flow, verdict)
    assert {verdict for verdict, _proto in verdicts.values()} == {
        "DROP", "REFLECT", "FORWARD"}


@pytest.mark.parametrize("telemetry", [False, True])
def test_journal_leaves_the_scan_digest_alone(scan, telemetry):
    digests = scan["digests"]
    assert digests[True, telemetry] == digests[False, telemetry]


def test_observed_scan_metrics_frames_per_flow(scan):
    per_flow = scan["frames"]["metrics"] / scan["flows"]
    assert per_flow <= MAX_ENABLED_FRAMES_PER_SCAN_FLOW


def test_observed_scan_obs_frames_per_flow(scan):
    assert scan["frames"]["obs"] / scan["flows"] <= MAX_OBS_FRAMES_PER_FLOW


# ----------------------------------------------------------------------
# Telemetry off and on over a flow workload
# ----------------------------------------------------------------------
def flow_workload(telemetry: bool):
    """Two subfarms of six inmates fetching every 2 s for 120 s, run
    under :func:`observed`: ``(farm, frames)``."""
    farm = Farm(FarmConfig(seed=SEED, telemetry=telemetry))
    _web_server(farm.add_external_host("webserver", WEB_IP))
    for index in range(2):
        sub = farm.create_subfarm(f"sf{index}")
        sub.set_default_policy(AllowAll())
        for _ in range(6):
            sub.create_inmate(image_factory=flowgen_image(2.0))
    _, frames = observed(lambda: farm.run(until=120.0))
    return farm, frames


def test_telemetry_frames_per_flow_off_and_on():
    enabled, enabled_frames = flow_workload(telemetry=True)
    _, disabled_frames = flow_workload(telemetry=False)
    flows = sum(sub.router.counters["flows_created"]
                for sub in enabled.subfarms.values())
    assert flows > 500
    assert (disabled_frames["metrics"]
            <= MAX_DISABLED_FRAMES_PER_FLOW * flows)
    assert (enabled_frames["metrics"]
            <= MAX_ENABLED_FRAMES_PER_FLOW * flows)
    # Counters and gauges with a non-zero value, histograms with
    # observations: an enabled domain must show the run.
    snap = enabled.telemetry_snapshot()
    readings = (sum(1 for family in ("counters", "gauges")
                    for value in snap[family].values() if value)
                + sum(1 for entry in snap["histograms"].values()
                      if entry["count"]))
    assert readings >= MIN_ENABLED_READINGS
