"""Operator CLI for the observability plane.

Usage::

    python -m repro.obs snapshot [--format json|openmetrics|jsonl|chrome]
    python -m repro.obs grep PATTERN [--kind verdict.issued]
    python -m repro.obs why FLOW
    python -m repro.obs diff A.json B.json

Every subcommand reads from one of two sources:

* ``--journal PATH`` / ``--snapshot PATH`` — previously dumped JSON:
  a snapshot, or a campaign summary carrying the merged ones (e.g.
  the file ``python -m repro.experiments streaming-farm --journal
  --out DIR`` writes, given to both flags); or
* nothing, in which case the CLI runs the built-in **golden-seed
  farm** (:func:`golden_farm`): a deterministic single-subfarm run
  that exercises the whole decision surface — admission, verdicts,
  fast-path installs, an over-threshold trigger recycling an inmate,
  a containment-server crash driving deadline → retry → degraded
  mode and back, and hostile frames quarantined by the malice
  barrier.  Same seed ⇒ byte-identical journal, so ``why`` output is
  reproducible and diffable across runs.

``why FLOW`` accepts any unambiguous substring of a flow id (try
``grep flow.created`` to list them), or ``seq:N`` to anchor on one
event's causal chain.  An unknown flow or event id prints a friendly
"no such event" message (plus the first few known flows) and exits 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import List, Optional

from repro.obs.export import (
    render_chrome_trace,
    render_jsonl,
    render_openmetrics,
)
from repro.obs.provenance import (
    event_counts,
    flows_in,
    render_chain,
    render_why,
    render_why_event,
)

GOLDEN_SEED = 11
GOLDEN_DURATION = 300.0

_TARGET_IP = "203.0.113.80"
_TARGET_PORT = 80


def _beacon_image(period: float = 20.0, chunk: int = 128):
    """An inmate that phones home on a fixed period — each beacon is a
    fresh flow, so over-threshold activity triggers see it."""
    from repro.net.addresses import IPv4Address
    from repro.services.dhcp import DhcpClient

    def image(host):
        def configured(h):
            def beat():
                conn = h.tcp.connect(IPv4Address(_TARGET_IP), _TARGET_PORT)
                conn.on_established = lambda c: c.send(b"x" * chunk)
                conn.on_data = lambda c, d: c.close()
                h.sim.schedule(period, beat, label="beacon")

            h.sim.schedule(1.0, beat, label="beacon-start")

        DhcpClient(host, on_configured=configured).start()

    return image


def golden_farm(seed: int = GOLDEN_SEED,
                duration: float = GOLDEN_DURATION):
    """Run the golden-seed farm and return it (journal + telemetry on).

    The scenario is fixed so the journal tells the full story: three
    beaconing inmates behind one subfarm; an over-threshold trigger
    (``> 2`` flows per minute) recycling vlan state; the only
    containment server crashing at t=120 for 60 virtual seconds
    (deadline → retry → degraded mode → recovery); and two malformed
    wire frames quarantined by the malice barrier at t=30.
    """
    from repro.core.policy import AllowAll
    from repro.farm import Farm, FarmConfig
    from repro.faults.plan import FaultPlan, FaultSpec
    from repro.net.http import echo

    config = FarmConfig(
        seed=seed,
        telemetry=True,
        journal=True,
        journal_sample_interval=30.0,
        verdict_deadline=5.0,
        fault_plan=FaultPlan([
            FaultSpec(kind="cs_crash", at=120.0, restore_after=60.0),
        ]),
    )
    farm = Farm(config)

    echo(farm.add_external_host("echo", _TARGET_IP), _TARGET_PORT)
    sub = farm.create_subfarm("gold")
    sub.set_default_policy(AllowAll())
    inmates = [sub.create_inmate(image_factory=_beacon_image())
               for _ in range(3)]
    sub.trigger_engine.add_text(
        f"*:{_TARGET_PORT}/tcp / 1min > 2 -> revert",
        {inmate.vlan for inmate in inmates})
    # Hostile bytes at t=30: both fail Ethernet parsing, land in the
    # barrier's quarantine, and show up as barrier.quarantine events.
    vlan = inmates[0].vlan
    farm.sim.schedule(30.0, sub.router.ingest_wire, vlan, b"\x00" * 9,
                      label="golden-hostile")
    farm.sim.schedule(30.5, sub.router.ingest_wire, vlan,
                      b"\xff" * 15, label="golden-hostile")
    farm.run(until=duration)
    return farm


# ----------------------------------------------------------------------
# Input loading
# ----------------------------------------------------------------------
def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_snapshot(path: str, key: str, marker: str) -> dict:
    """A dumped snapshot, or the one a campaign summary
    (``python -m repro.experiments <sweep> --out DIR``) or shard
    payload carries under ``key`` rather than at top level."""
    doc = _load_json(path)
    if marker not in doc:
        for outer in (key, "merged"):
            inner = doc.get(outer)
            if isinstance(inner, dict):
                return inner.get(key, inner)
    return doc


def _sources(args) -> tuple:
    """(telemetry snapshot or None, journal snapshot or None)."""
    telemetry = journal = None
    if getattr(args, "snapshot", None):
        telemetry = _load_snapshot(args.snapshot, "telemetry", "counters")
    if getattr(args, "journal", None):
        journal = _load_snapshot(args.journal, "journal", "events")
    if telemetry is None and journal is None:
        farm = golden_farm(seed=args.seed, duration=args.duration)
        telemetry = farm.telemetry_snapshot()
        journal = farm.journal_snapshot()
    return telemetry, journal


def _event_line(event: dict) -> str:
    return render_chain([dict(event, parent=None)])


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_snapshot(args) -> int:
    telemetry, journal = _sources(args)
    if args.format == "openmetrics":
        if telemetry is None:
            print("openmetrics needs a telemetry snapshot "
                  "(pass --snapshot)", file=sys.stderr)
            return 2
        text = render_openmetrics(telemetry)
    elif args.format in ("jsonl", "chrome"):
        if journal is None:
            print(f"{args.format} needs a journal (pass --journal)",
                  file=sys.stderr)
            return 2
        text = render_jsonl(journal) if args.format == "jsonl" \
            else render_chrome_trace(journal, indent=args.indent)
    else:
        doc = {}
        if telemetry is not None:
            doc["telemetry"] = telemetry
        if journal is not None:
            doc["journal"] = journal
            doc["event_counts"] = event_counts(journal.get("events", []))
        text = json.dumps(doc, indent=args.indent, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_grep(args) -> int:
    _, journal = _sources(args)
    if journal is None:
        print("grep needs a journal (pass --journal)", file=sys.stderr)
        return 2
    pattern = re.compile(args.pattern)
    matched = 0
    for event in journal.get("events", []):
        if args.kind and event.get("kind") != args.kind:
            continue
        line = _event_line(event)
        flow = event.get("flow")
        if flow:
            line = f"{line}  flow={flow}"
        if pattern.search(line):
            matched += 1
            print(line)
    print(f"({matched} matching events)", file=sys.stderr)
    return 0 if matched else 1


def _cmd_why(args) -> int:
    _, journal = _sources(args)
    if journal is None:
        print("why needs a journal (pass --journal)", file=sys.stderr)
        return 2
    events = journal.get("events", [])
    try:
        if args.flow.startswith("seq:"):
            token = args.flow[len("seq:"):]
            seq = int(token) if token.isdigit() else token
            print(render_why_event(events, seq))
        else:
            print(render_why(events, args.flow))
    except (ValueError, KeyError) as error:
        # str(KeyError) wraps the message in repr quotes; unwrap it.
        message = error.args[0] if error.args else str(error)
        print(f"no such event: {message}" if isinstance(error, KeyError)
              and not str(message).startswith("no such event")
              else str(message), file=sys.stderr)
        flows = flows_in(events)
        if flows:
            print("known flows (first 10):", file=sys.stderr)
        for flow in flows[:10]:
            print(f"  {flow}", file=sys.stderr)
        return 2
    return 0


def _cmd_diff(args) -> int:
    left = _load_json(args.left)
    right = _load_json(args.right)
    if left == right:
        print("identical")
        return 0
    keys = sorted(set(left) | set(right))
    for key in keys:
        a, b = left.get(key), right.get(key)
        if a == b:
            continue
        if key == "events" and isinstance(a, list) and isinstance(b, list):
            counts_a, counts_b = event_counts(a), event_counts(b)
            for kind in sorted(set(counts_a) | set(counts_b)):
                ca, cb = counts_a.get(kind, 0), counts_b.get(kind, 0)
                if ca != cb:
                    print(f"  events[{kind}]: {ca} != {cb}")
            if counts_a == counts_b:
                print(f"  events: same counts, differing payloads "
                      f"({len(a)} vs {len(b)})")
        else:
            ra = json.dumps(a, sort_keys=True, default=str)
            rb = json.dumps(b, sort_keys=True, default=str)
            print(f"  {key}: {ra[:80]} != {rb[:80]}")
    return 1


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="inspect farm telemetry and the decision journal")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p) -> None:
        p.add_argument("--seed", type=int, default=GOLDEN_SEED,
                       help="golden-farm seed (when no file is given)")
        p.add_argument("--duration", type=float,
                       default=GOLDEN_DURATION,
                       help="golden-farm virtual seconds")
        p.add_argument("--snapshot", metavar="PATH",
                       help="read a telemetry snapshot JSON file")
        p.add_argument("--journal", metavar="PATH",
                       help="read a journal snapshot JSON file")

    p_snapshot = sub.add_parser(
        "snapshot", help="dump telemetry + journal state")
    common(p_snapshot)
    p_snapshot.add_argument("--format", default="json",
                            choices=("json", "openmetrics", "jsonl",
                                     "chrome"))
    p_snapshot.add_argument("--out", metavar="PATH",
                            help="write to a file instead of stdout")
    p_snapshot.add_argument("--indent", type=int, default=2)
    p_snapshot.set_defaults(func=_cmd_snapshot)

    p_grep = sub.add_parser(
        "grep", help="regex search over journal events")
    common(p_grep)
    p_grep.add_argument("pattern")
    p_grep.add_argument("--kind", help="restrict to one event kind")
    p_grep.set_defaults(func=_cmd_grep)

    p_why = sub.add_parser(
        "why", help="causal decision chain for one flow")
    common(p_why)
    p_why.add_argument("flow",
                       help="flow id (or unambiguous substring), or "
                            "seq:N for a single event's chain")
    p_why.set_defaults(func=_cmd_why)

    p_diff = sub.add_parser(
        "diff", help="compare two dumped snapshots/journals")
    p_diff.add_argument("left")
    p_diff.add_argument("right")
    p_diff.set_defaults(func=_cmd_diff)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
