"""Journal overhead gate: observing must never perturb, and barely cost.

Two properties, both asserted (``make obs-quick``):

1. **Digest identity.**  The flight recorder only *observes*: it draws
   no RNG and schedules nothing, so a farm run's determinism digest
   (counters + flow log + upstream trace + telemetry snapshot — the
   exact recipe of ``bench_hotpath.run_farm``) must be byte-identical
   with the journal off, with it on, and to the digest tracked in
   ``BENCH_hotpath.json``.
2. **Forwarding overhead.**  Journal recording happens on decision
   events (flow setup, verdicts, failover), never per packet, so the
   established-flow fast path with a live journal attached must stay
   within ``MAX_FORWARDING_SLOWDOWN`` (10%) of the journal-off rate.

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

from repro.core.policy import AllowAll
from repro.farm import Farm, FarmConfig
from repro.obs.journal import Journal

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOTPATH_NAME = "BENCH_hotpath.json"

#: Farm-run parameters — MUST match bench_hotpath.run_determinism so
#: the journal-off digest can be compared against the tracked one.
SEED = 11
INMATES = 3
ROUNDS = 40
DURATION = 120.0

MAX_FORWARDING_SLOWDOWN = 0.10


def run_farm_journal(seed: int, inmates: int, rounds: int,
                     duration: float) -> dict:
    """``bench_hotpath.run_farm`` with the journal attached — same
    workload, same digest recipe, so any digest difference is the
    journal perturbing the run."""
    import hashlib

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
    counters = dict(sub.router.counters)
    digest = hashlib.sha256()
    digest.update(json.dumps(counters, sort_keys=True).encode())
    for entry in sub.router.flow_log:
        digest.update(
            f"{entry.timestamp:.9f}|{entry.vlan}|{entry.verdict}"
            f"|{entry.orig}|{entry.policy}".encode())
    for rec in farm.gateway.upstream_trace.records:
        digest.update(rec.frame.to_bytes())
    # flowtable.* instruments are excluded to match the recipe in
    # bench_hotpath.run_farm (the tracked digests never included them).
    snapshot = farm.telemetry_snapshot(include_traces=False)
    for family in ("counters", "gauges"):
        snapshot[family] = {k: v for k, v in snapshot[family].items()
                            if not k.startswith("flowtable.")}
    digest.update(json.dumps(snapshot, sort_keys=True).encode())
    return {
        "seconds": round(elapsed, 4),
        "digest": digest.hexdigest(),
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
    from repro.net.addresses import IPv4Address, MacAddress
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
    host: best-of-3 read -9% to +4% around a true ~0 over six
    processes, best-of-9 -3% to +1%.
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


def run_gate(packets: int) -> dict:
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
    if slowdown > MAX_FORWARDING_SLOWDOWN:
        violations.append(
            f"journal-on forwarding is {slowdown:.1%} slower than "
            f"journal-off (limit {MAX_FORWARDING_SLOWDOWN:.0%}): "
            f"{on_pps} vs {off_pps} pps")

    return {
        "benchmark": "bench_obs_overhead",
        "config": {
            "seed": SEED, "inmates": INMATES, "rounds": ROUNDS,
            "duration": DURATION, "packets": packets,
            "max_forwarding_slowdown": MAX_FORWARDING_SLOWDOWN,
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
        "violations": violations,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI gate only; no JSON file written")
    parser.add_argument("--packets", type=int, default=None,
                        help="fast-path pump size (default 200000, "
                             "20000 with --quick)")
    parser.add_argument("--output", default=os.path.join(
        REPO_ROOT, "BENCH_obs.json"))
    args = parser.parse_args(argv)

    packets = args.packets if args.packets is not None \
        else (20_000 if args.quick else 200_000)
    result = run_gate(packets)
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
    print("journal overhead gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
