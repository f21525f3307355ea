"""Observability overhead gate: observing must never perturb, and barely cost.

One bench for both instruments (``make obs-quick``).  Asserted:

1. **Digest identity.**  The flight recorder only *observes*: it draws
   no RNG and schedules nothing, so a farm run's determinism digest
   (``repro.parallel.tasks.farm_digest`` — the recipe of
   ``bench_hotpath.run_farm``) must be byte-identical with the journal
   off, with it on, and to the digest tracked in ``BENCH_hotpath.json``.
2. **Nothing recorded per packet.**  Journal recording happens on
   decision events (flow setup, verdicts, failover), so pumping the
   established-flow fast path with a live journal attached may record
   at most ``MAX_PUMP_EVENTS`` (the flow's setup; 3 today) however
   many packets go through.  The journal-on vs journal-off rate of the
   same pump is *reported*, not gated: as the difference of two
   sub-second runs it scatters by 10% on a busy shared host, parent
   and change alike.
3. **Where events actually fire.**  The ``scan`` section runs a
   worm-style scan (every probe a new flow, DROP/REFLECT/FORWARD
   verdicts under a DSL policy) under all four on/off combinations of
   telemetry and journal, each run ending with what an operator does
   with an observed run (a telemetry snapshot and a journal digest).
   It gates what it can count: journal events per flow (>= 4, or the
   run is not scan-shaped; <= ``MAX_EVENTS_PER_FLOW``, or a call site
   started journaling more), the recorder's ns/event over that run's
   own event stream replayed into a fresh journal (``MAX_RECORD_NS``,
   a gross-regression bound several times the reference host's
   figure), and — under a profile hook, over the fully observed run
   up to its export — Python frames entered in
   ``repro/obs/metrics.py`` per simulator event
   (``MAX_ENABLED_TOUCHES_PER_EVENT``: telemetry reads the counts the
   farm keeps, so only labelled per-flow cells, histograms and the
   strided queue-depth sample are ever pushed) and frames entered
   anywhere in ``repro/obs/`` per journaled flow
   (``MAX_OBS_FRAMES_PER_FLOW``).  ``observed`` splits the whole-run
   cost into counters / journal recording / export from the four
   timings; like every wall-clock difference here it is reported, not
   gated.
4. **Disabled telemetry is (nearly) free, enabled telemetry nearly
   so.**  A site whose component keeps its own count registered a
   read and makes no instrument call in either mode; what remains
   pushed bumps a pre-bound cell (the shared no-op when disabled).
   There is no uninstrumented build to diff against, so the
   ``telemetry`` section counts the calls that actually happen —
   Python frames entered in ``repro/obs/metrics.py`` over a flow
   workload — DISABLED (``touches``, gated per simulator event by
   ``MAX_TOUCHES_PER_EVENT``; ``touches x one microbenchmarked no-op
   touch`` over the un-profiled wall time is reported as
   ``disabled_overhead``, 0.1%) and ENABLED (``enabled_touches``,
   gated by ``MAX_ENABLED_TOUCHES_PER_EVENT``).  The enabled domain
   must also *show* the run (``enabled_readings``: instruments with a
   non-zero value in its snapshot), or the section measures nothing.

The journal's own digest is additionally asserted stable across two
same-seed runs — the reproducibility that makes ``python -m repro.obs
why`` output diffable evidence (docs/OBSERVABILITY.md).

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py          # writes BENCH_obs.json
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --quick  # CI gate, no JSON output
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

import bench_hotpath
from bench_hotpath import RouterHarness, run_farm

from repro.core.dsl import DslPolicy
from repro.core.policy import AllowAll
from repro.experiments.scalability import WEB_IP, _web_server, flowgen_image
from repro.farm import Farm, FarmConfig
from repro.net.addresses import IPv4Address
from repro.obs.journal import ROOT as JOURNAL_ROOT, Journal
from repro.obs.metrics import NULL_INSTRUMENT
from repro.parallel.tasks import farm_digest
from repro.services.dhcp import DhcpClient

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOTPATH_NAME = "BENCH_hotpath.json"

#: Farm-run parameters — MUST match bench_hotpath.run_determinism so
#: the journal-off digest can be compared against the tracked one.
SEED = 11
INMATES = 3
ROUNDS = 40
DURATION = 120.0

#: Journal events a fast-path pump may record: its one flow's setup.
MAX_PUMP_EVENTS = 8

#: Scan workload: journal events per flow (4 today: flow.created,
#: verdict.issued, verdict.applied, fastpath.install), and the
#: recorder's replayed cost per event (~1.6 us on the reference host; a
#: gross-regression bound, sized so a loaded shared host does not trip
#: it).
MAX_EVENTS_PER_FLOW = 5.0
MAX_RECORD_NS = 10_000

#: The fully observed scan, counted up to its export: Python frames in
#: repro/obs/metrics.py per simulator event (3.2 while telemetry kept
#: its own counts, 0.09 now) and in repro/obs/ per journaled flow (138
#: then, 10.5 now: four record() calls, bind_flow, flow_for, and the
#: verdict cell and two histograms that are still pushed).
MAX_ENABLED_TOUCHES_PER_EVENT = 0.2
MAX_OBS_FRAMES_PER_FLOW = 16.0

#: Disabled-telemetry bound (PR 1's gate) and its workload: no-op
#: instrument calls per simulator event (0.05 today).  Enabled, the
#: same workload is held to MAX_ENABLED_TOUCHES_PER_EVENT and must show
#: at least MIN_ENABLED_READINGS non-zero instruments.
MAX_TOUCHES_PER_EVENT = 0.25
MIN_ENABLED_READINGS = 20
TELEMETRY_SUBFARMS = 2
TELEMETRY_INMATES_PER = 6
TELEMETRY_FLOW_INTERVAL = 2.0
TELEMETRY_DURATION = 120.0
NOOP_CALLS = 200_000

SCAN_PROGRAM = """
port 445/tcp     -> reflect sink
port 135-139/tcp -> drop
port 80/tcp      -> forward
default          -> reflect sink
"""
SCAN_PORTS = (445, 135, 139, 80, 25)
SCAN_INMATES = 8
SCAN_INTERVAL = 0.5
SCAN_REPEATS = 5


def run_farm_journal(seed: int, inmates: int, rounds: int,
                     duration: float) -> dict:
    """``bench_hotpath.run_farm`` with the journal attached — same
    workload, same digest recipe, so any digest difference is the
    journal perturbing the run."""
    farm = Farm(FarmConfig(seed=seed, telemetry=True, journal=True))
    bench_hotpath._echo_server(
        farm.add_external_host("echo", bench_hotpath.TARGET_IP))
    sub = farm.create_subfarm("bench")
    sub.set_default_policy(AllowAll())
    for _ in range(inmates):
        sub.create_inmate(
            image_factory=bench_hotpath.streaming_image(rounds))
    started = perf_counter()
    farm.run(until=duration)
    elapsed = perf_counter() - started
    digest, _ = farm_digest(farm)
    return {
        "seconds": round(elapsed, 4),
        "digest": digest,
        "journal_events": farm.journal.recorded,
        "journal_digest": farm.journal.digest(),
    }


def _forwarding_pump(journal_on: bool, packets: int, seed: int):
    """One fast-path harness with an enforced flow, and the closure
    that pumps ``packets`` through it once and returns the seconds.

    Same harness and pump as ``bench_hotpath.bench_forwarding``; the
    journal is attached after construction (the micro-harness builds
    its own simulator), before the flow is established so setup-time
    decisions are recorded — steady-state forwarding must not be.
    """
    from repro.net.addresses import MacAddress
    from repro.net.packet import ACK, PSH, EthernetFrame, IPv4Packet, \
        TCPSegment

    harness = RouterHarness(seed=seed)
    if journal_on:
        journal = Journal(clock=lambda: harness.sim.now)
        harness.sim.journal = journal
        harness.router.journal = journal
    record = harness.establish_flow(vlan=2, sport=40000)
    assert record.phase.value == "enforced", record.phase
    inmate_ip = record.orig.orig_ip
    payload = b"x" * 512
    c2d = TCPSegment(40000, bench_hotpath.TARGET_PORT, 2000, 9001,
                     ACK | PSH, payload=payload)
    frame = EthernetFrame(
        harness.mac, MacAddress("02:00:00:00:00:01"),
        IPv4Packet(inmate_ip, IPv4Address(bench_hotpath.TARGET_IP), c2d),
        vlan=2)
    d2c = IPv4Packet(
        IPv4Address(bench_hotpath.TARGET_IP),
        record.nat_global or inmate_ip,
        TCPSegment(bench_hotpath.TARGET_PORT, 40000, 9500, 2001,
                   ACK | PSH, payload=payload))
    router = harness.router
    half = packets // 2

    def pump() -> float:
        harness.drain()
        started = perf_counter()
        for _ in range(half):
            router.inmate_frame(frame, 2)
        for _ in range(half):
            router.upstream_packet(d2c)
        return perf_counter() - started

    return harness, pump


def forwarding_rates(packets: int, seed: int = 7, repeats: int = 9):
    """Fast-path packets/sec without and with a live journal:
    ``(off, on)``.

    Both harnesses are built first and the two sides alternate within
    each repeat (best-of per side), so a host whose speed swings for
    seconds at a time slows both sides of a pair rather than one.
    Single ``--quick`` pumps (~0.1 s) still scatter by 10% on such a
    host (best-of-3 read -9% to +4% around a true ~0 over six
    processes, best-of-9 -3% to +1%), which is why the rates are
    reported and the gate is on ``journal_events``.
    """
    # Both lists are indexed by journal_on (False, True).
    sides = [_forwarding_pump(on, packets, seed) for on in (False, True)]
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for journal_on, (_, pump) in enumerate(sides):
            best[journal_on] = min(best[journal_on], pump())
    sent = 2 * (packets // 2)
    return tuple({
        "journal": journal_on,
        "packets": sent,
        "seconds": round(seconds, 4),
        "packets_per_sec": round(sent / seconds) if seconds else 0,
        "journal_events": (harness.sim.journal.recorded
                           if journal_on else 0),
    } for journal_on, seconds, (harness, _)
        in zip((False, True), best, sides))


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


def _obs_frames():
    """``(hook, counts)``: a profile hook counting Python frames
    entered under ``repro/obs/`` into ``counts`` — ``"metrics"`` for
    ``metrics.py``, ``"obs"`` for the whole package."""
    metrics_file = sys.modules[NULL_INSTRUMENT.__module__].__file__
    obs_dir = os.path.dirname(metrics_file) + os.sep
    counts = {"metrics": 0, "obs": 0}

    def hook(frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(obs_dir):
                counts["obs"] += 1
                if filename == metrics_file:
                    counts["metrics"] += 1

    return hook, counts


def _scan_run(journal_on: bool, telemetry_on: bool, duration: float,
              profile=None) -> dict:
    farm = Farm(FarmConfig(seed=SEED, telemetry=telemetry_on,
                           journal=journal_on))
    _web_server(farm.add_external_host("web", WEB_IP))
    sub = farm.create_subfarm("scan")
    sub.add_catchall_sink()
    sub.set_default_policy(DslPolicy(SCAN_PROGRAM))
    for _ in range(SCAN_INMATES):
        sub.create_inmate(image_factory=_scan_image(duration - 10.0))
    sys.setprofile(profile)
    try:
        started = perf_counter()
        farm.run(until=duration)
        ran = perf_counter()
    finally:
        sys.setprofile(None)
    # What an operator does with an observed run: export it.
    farm.telemetry_snapshot()
    farm.journal.digest()
    return {
        "seconds": ran - started,
        "export_seconds": perf_counter() - ran,
        "flows": sub.router.counters["flows_created"],
        "sim_events": farm.sim.events_processed,
        "events": farm.journal.events(),
        "digest": farm_digest(farm)[0],
    }


def _record_cost(events) -> float:
    """Seconds per ``Journal.record`` over a run's own event stream —
    its kinds, flow/VLAN reuse and field payloads — replayed into a
    fresh journal, best of ``SCAN_REPEATS``."""
    stream = [(event.kind, event.flow, event.vlan,
               JOURNAL_ROOT if event.parent is None else None,
               event.fields) for event in events]
    best = float("inf")
    for _ in range(SCAN_REPEATS):
        journal = Journal(clock=lambda: 0.0)
        started = perf_counter()
        for kind, flow, vlan, parent, fields in stream:
            journal.record(kind, flow, vlan, parent, **fields)
        best = min(best, perf_counter() - started)
    return best / len(stream)


def scan_cost(duration: float) -> dict:
    """Observation cost where it fires per flow.

    Whole run: the same scan under the four (journal, telemetry)
    combinations, sides alternating within each repeat (best-of per
    side, as in :func:`forwarding_rates`).  ``slowdown`` is everything
    being journaled costs a telemetry-on run (call-site id formatting
    and alias lookups as well as recording); ``observed`` splits what
    the fully observed run pays over the unobserved one into counters,
    journal recording and export.  As differences of seconds-long runs
    they only resolve a few percent, so they are reported, not gated.
    Recorder: ``ns_per_event`` / ``events_per_sec`` time
    ``Journal.record`` itself over the journaled run's event stream
    (:func:`_record_cost`); ``farm_events_per_sec`` is what the
    journaled farm sustained, not a ceiling on the recorder.
    Counted: one more fully observed run under :func:`_obs_frames`."""
    sides = [(journal_on, telemetry_on) for journal_on in (False, True)
             for telemetry_on in (False, True)]
    best = {side: float("inf") for side in sides}
    export = float("inf")
    runs = {}
    for _ in range(SCAN_REPEATS):
        for side in sides:
            run = runs[side] = _scan_run(*side, duration)
            best[side] = min(best[side], run["seconds"])
            if side == (True, True):
                export = min(export, run["export_seconds"])
    on, off = runs[True, True], runs[False, True]
    events = len(on["events"])
    per_event = _record_cost(on["events"]) if events else 0.0
    hook, frames = _obs_frames()
    counted = _scan_run(True, True, duration, profile=hook)
    neither, both = best[False, False], best[True, True]
    return {
        "duration": duration,
        "flows": on["flows"],
        "journal_events": events,
        "events_per_flow": round(events / on["flows"], 2)
        if on["flows"] else 0.0,
        "seconds_off": round(best[False, True], 4),
        "seconds_on": round(both, 4),
        "slowdown": round((both - best[False, True]) / best[False, True], 4)
        if best[False, True] else 1.0,
        "ns_per_event": round(per_event * 1e9),
        "events_per_sec": round(1.0 / per_event) if per_event else 0,
        "farm_events_per_sec": round(events / both) if both else 0,
        # The digest folds the telemetry snapshot in, so it is compared
        # journal off against on under each telemetry setting.
        "digest_match": all(
            runs[False, telemetry_on]["digest"]
            == runs[True, telemetry_on]["digest"]
            for telemetry_on in (False, True)),
        "observed": {
            "seconds_neither": round(neither, 4),
            "seconds_telemetry": round(best[False, True], 4),
            "seconds_journal": round(best[True, False], 4),
            "seconds_both": round(both, 4),
            "counters_s": round(best[False, True] - neither, 4),
            "journal_s": round(best[True, False] - neither, 4),
            "export_s": round(export, 4),
            "share": round((both + export - neither) / (both + export), 4),
        },
        "sim_events": counted["sim_events"],
        "metrics_frames_per_event": round(
            frames["metrics"] / counted["sim_events"], 3),
        "obs_frames_per_flow": round(frames["obs"] / counted["flows"], 2),
    }


def _telemetry_run(telemetry: bool, profile=None):
    farm = Farm(FarmConfig(seed=SEED, telemetry=telemetry))
    _web_server(farm.add_external_host("webserver", WEB_IP))
    for index in range(TELEMETRY_SUBFARMS):
        sub = farm.create_subfarm(f"sf{index}")
        sub.set_default_policy(AllowAll())
        for _ in range(TELEMETRY_INMATES_PER):
            sub.create_inmate(
                image_factory=flowgen_image(TELEMETRY_FLOW_INTERVAL))
    sys.setprofile(profile)
    try:
        started = perf_counter()
        farm.run(until=TELEMETRY_DURATION)
        return farm, perf_counter() - started
    finally:
        sys.setprofile(None)


def _touches(telemetry: bool):
    """Instrument calls a run really makes: Python frames entered in
    ``repro/obs/metrics.py`` (the shared no-op instrument's methods
    when disabled, the cells still pushed when enabled), counted with
    a profile hook.  Returns ``(farm, touches)``."""
    hook, frames = _obs_frames()
    farm, _ = _telemetry_run(telemetry, profile=hook)
    return farm, frames["metrics"]


def _readings(farm) -> int:
    """Instruments showing the run in an enabled domain's snapshot:
    counters and gauges with a non-zero value (most of them read
    straight off the component that counts), histograms with
    observations."""
    snap = farm.telemetry_snapshot()
    return (sum(1 for family in ("counters", "gauges")
                for value in snap[family].values() if value)
            + sum(1 for entry in snap["histograms"].values()
                  if entry["count"]))


def _noop_cost() -> float:
    """Median per-call cost of a bound no-op instrument, in seconds."""
    cell = NULL_INSTRUMENT.bind(subfarm="x")
    samples = []
    for _ in range(5):
        started = perf_counter()
        for _ in range(NOOP_CALLS):
            cell.inc()
        samples.append((perf_counter() - started) / NOOP_CALLS)
    return sorted(samples)[len(samples) // 2]


def disabled_telemetry_overhead() -> dict:
    """The two counts (see module docstring, 4).  The analytic
    overhead and the enabled/disabled wall ratio are context, not
    asserted — single-run wall times are too noisy for a hard bound."""
    enabled_farm, enabled_wall = _telemetry_run(True)
    _, touches = _touches(False)
    counted_farm, enabled_touches = _touches(True)
    # Disabled is the production configuration: best of three.
    disabled_wall = min(_telemetry_run(False)[1] for _ in range(3))
    per_touch = _noop_cost()
    return {
        "workload": f"{TELEMETRY_SUBFARMS} subfarms x "
                    f"{TELEMETRY_INMATES_PER} inmates, "
                    f"{TELEMETRY_DURATION:.0f} virtual s",
        "events": enabled_farm.sim.events_processed,
        "enabled_touches": enabled_touches,
        "enabled_readings": _readings(counted_farm),
        "touches": touches,
        "per_touch_ns": round(per_touch * 1e9, 1),
        "disabled_seconds": round(disabled_wall, 4),
        "enabled_seconds": round(enabled_wall, 4),
        "disabled_overhead": round(touches * per_touch / disabled_wall, 4),
    }


def run_gate(packets: int, scan_duration: float) -> dict:
    """All measurements + assertions; ``violations`` is empty when the
    journal is free of both perturbation and meaningful cost."""
    violations = []

    tracked_digest = None
    hotpath_path = os.path.join(REPO_ROOT, HOTPATH_NAME)
    if os.path.exists(hotpath_path):
        with open(hotpath_path) as handle:
            tracked_digest = json.load(handle).get(
                "determinism", {}).get("digest")

    off = run_farm(SEED, INMATES, ROUNDS, DURATION)
    on = run_farm_journal(SEED, INMATES, ROUNDS, DURATION)
    replay = run_farm_journal(SEED, INMATES, ROUNDS, DURATION)

    if tracked_digest and off["digest"] != tracked_digest:
        violations.append(
            f"journal-off farm digest differs from the one tracked in "
            f"{HOTPATH_NAME} ({off['digest']} != {tracked_digest})")
    if on["digest"] != off["digest"]:
        violations.append(
            "journal-on farm digest differs from journal-off — the "
            "journal perturbed the run "
            f"({on['digest']} != {off['digest']})")
    if on["journal_digest"] != replay["journal_digest"]:
        violations.append(
            "journal digest drifts across identical runs — event "
            "ordering is not seed-stable")
    if not on["journal_events"]:
        violations.append("journal-on farm run recorded zero events — "
                          "the gate is measuring nothing")

    fwd_off, fwd_on = forwarding_rates(packets)
    off_pps = fwd_off["packets_per_sec"]
    on_pps = fwd_on["packets_per_sec"]
    slowdown = (off_pps - on_pps) / off_pps if off_pps else 1.0
    if fwd_on["journal_events"] > MAX_PUMP_EVENTS:
        violations.append(
            f"{fwd_on['journal_events']} journal events over "
            f"{fwd_on['packets']} fast-path packets (limit "
            f"{MAX_PUMP_EVENTS}) — something journals per packet")

    scan = scan_cost(scan_duration)
    if not 4 <= scan["events_per_flow"] <= MAX_EVENTS_PER_FLOW:
        violations.append(
            f"scan run journals {scan['events_per_flow']} events per "
            f"flow, outside [4, {MAX_EVENTS_PER_FLOW}] — not scan-shaped, "
            "or a call site journals more than it did")
    if not scan["digest_match"]:
        violations.append("journal-on scan digest differs from "
                          "journal-off — the journal perturbed the run")
    if scan["ns_per_event"] > MAX_RECORD_NS:
        violations.append(
            f"Journal.record costs {scan['ns_per_event']} ns per event "
            f"over the scan's own stream (limit {MAX_RECORD_NS})")
    if scan["metrics_frames_per_event"] > MAX_ENABLED_TOUCHES_PER_EVENT:
        violations.append(
            f"the observed scan enters metrics.py "
            f"{scan['metrics_frames_per_event']} times per simulator "
            f"event (limit {MAX_ENABLED_TOUCHES_PER_EVENT}) — a site "
            "pushes a count its component already keeps")
    if scan["obs_frames_per_flow"] > MAX_OBS_FRAMES_PER_FLOW:
        violations.append(
            f"the observed scan enters repro/obs/ "
            f"{scan['obs_frames_per_flow']} times per journaled flow "
            f"(limit {MAX_OBS_FRAMES_PER_FLOW})")

    telemetry = disabled_telemetry_overhead()
    if telemetry["enabled_readings"] < MIN_ENABLED_READINGS:
        violations.append("telemetry workload shows only "
                          f"{telemetry['enabled_readings']} non-zero "
                          "instruments when enabled — the gate is "
                          "measuring nothing")
    if (telemetry["enabled_touches"]
            > MAX_ENABLED_TOUCHES_PER_EVENT * telemetry["events"]):
        violations.append(
            f"enabled telemetry makes {telemetry['enabled_touches']} "
            f"instrument calls over {telemetry['events']} events (limit "
            f"{MAX_ENABLED_TOUCHES_PER_EVENT} per event)")
    if telemetry["touches"] > MAX_TOUCHES_PER_EVENT * telemetry["events"]:
        violations.append(
            f"disabled telemetry makes {telemetry['touches']} no-op "
            f"instrument calls over {telemetry['events']} events (limit "
            f"{MAX_TOUCHES_PER_EVENT} per event)")

    return {
        "benchmark": "bench_obs_overhead",
        "config": {
            "seed": SEED, "inmates": INMATES, "rounds": ROUNDS,
            "duration": DURATION, "packets": packets,
            "max_pump_events": MAX_PUMP_EVENTS,
            "max_events_per_flow": MAX_EVENTS_PER_FLOW,
            "max_record_ns": MAX_RECORD_NS,
            "max_touches_per_event": MAX_TOUCHES_PER_EVENT,
            "max_enabled_touches_per_event": MAX_ENABLED_TOUCHES_PER_EVENT,
            "max_obs_frames_per_flow": MAX_OBS_FRAMES_PER_FLOW,
            "python": sys.version.split()[0],
        },
        "digest_identity": {
            "tracked_hotpath": tracked_digest,
            "journal_off": off["digest"],
            "journal_on": on["digest"],
            "match": on["digest"] == off["digest"] == (
                tracked_digest or off["digest"]),
        },
        "journal": {
            "events": on["journal_events"],
            "digest": on["journal_digest"],
            "replay_match": on["journal_digest"] ==
            replay["journal_digest"],
        },
        "forwarding": {
            "off": fwd_off,
            "on": fwd_on,
            "slowdown": round(slowdown, 4),
        },
        "scan": scan,
        "telemetry": telemetry,
        "violations": violations,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI gate only; no JSON file written")
    parser.add_argument("--packets", type=int, default=None,
                        help="fast-path pump size (default 200000, "
                             "30000 with --quick)")
    parser.add_argument("--output", default=os.path.join(
        REPO_ROOT, "BENCH_obs.json"))
    args = parser.parse_args(argv)

    packets = args.packets if args.packets is not None \
        else (30_000 if args.quick else 200_000)
    result = run_gate(packets,
                      scan_duration=120.0 if args.quick else 300.0)
    print(json.dumps(result, indent=2))
    if not args.quick:
        with open(args.output, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        print(f"\nwrote {args.output}")
    if result["violations"]:
        for violation in result["violations"]:
            print(f"FAIL: {violation}", file=sys.stderr)
        return 1
    print("observability overhead gate OK (reported, not gated: "
          f"forwarding slowdown {result['forwarding']['slowdown']:.1%}, "
          f"scan slowdown {result['scan']['slowdown']:.1%}, observed "
          f"share {result['scan']['observed']['share']:.1%}, disabled "
          f"telemetry {result['telemetry']['disabled_overhead']:.2%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
