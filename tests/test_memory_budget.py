"""What a run holds per captured frame and per exported event, counted
by ``tracemalloc`` rather than read off RSS.

GQ records every frame that crosses the upstream interface for the
life of a deployment (§5.6; each subfarm's inmate side in a window),
so the bytes a run holds per frame bound how long a farm can record
(docs/PERFORMANCE.md, "Trace memory").  Three budgets:

* **one copy per payload** — an application's ``bytes`` write is the
  payload of its segment, in both traces and at the peer, so on the
  ledger's stream shape no ``bytes`` object allocated in
  ``net/tcp.py`` is kept alive by a trace: the send path allocates
  none for a write that fits one segment (it used to copy every
  segment out of a ``bytearray``, one object per data segment);
* **a streaming journal digest** — ``Journal.digest()`` hashes the
  canonical text a chunk of events at a time, so what it allocates at
  its peak does not grow with the journal (the whole-text digest held
  the snapshot, its text and the text's encoding at once) and is one
  small chunk's worth;
* **one row per journal event** — an event is one tuple of atoms, so
  the journal holds at most 200 bytes per event of the scan's mix
  (docs/PERFORMANCE.md, "Journal memory").
"""

from __future__ import annotations

import os
import sys
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                "benchmarks", "ledger"))
import workloads  # noqa: E402

from repro.net import tcp  # noqa: E402
from repro.net.packet import TCPSegment  # noqa: E402
from repro.obs.journal import ROOT, Journal  # noqa: E402


#: What digesting a 30,000-event journal may hold at its peak: one
#: 64-event chunk's dicts and text (2.2 MB at 1,024 events a chunk).
MAX_DIGEST_PEAK_BYTES = 500_000
#: What the journal may hold per event of the scan's mix: one row of
#: atoms and the bookkeeping beside it (339 while each event was a row
#: plus its fields dict).
MAX_JOURNAL_BYTES_PER_EVENT = 200


def _captured_payloads(farm) -> list:
    """Every distinct non-empty TCP payload the farm's traces hold."""
    traces = [sub.router.trace for sub in farm.subfarms.values()]
    traces.append(farm.gateway.upstream_trace)
    held = {}
    for trace in traces:
        for record in trace.records:
            segment = record.frame.ip.payload if record.frame.ip else None
            if isinstance(segment, TCPSegment) and segment.payload:
                held[id(segment.payload)] = segment.payload
    return list(held.values())


def test_no_bytes_allocated_in_tcp_survive_echo_rounds():
    built = workloads.build_stream(seed=11, seconds=0.2)
    farm, app = built.farm, built.app
    for sub in farm.subfarms.values():
        sub.router.trace.store = True  # hold every payload it saw
    farm.run(until=32.0)            # DHCP, verdicts, first rounds
    before = app.progress
    tracemalloc.start()
    try:
        farm.run(until=34.0)
        payloads = _captured_payloads(farm)
        origins = [tracemalloc.get_object_traceback(payload)
                   for payload in payloads]
    finally:
        tracemalloc.stop()
    rounds = app.progress - before
    assert rounds >= 200 and app.correct == app.progress
    from_tcp = [origin for origin in origins if origin is not None
                and origin[0].filename == tcp.__file__]
    # At the parent of the one-copy send path: one per data segment,
    # two per echo round (520 over 264 rounds).
    assert from_tcp == [], (len(from_tcp), rounds, str(from_tcp[0]))
    # The echo rounds' segments are in the traces: they carry the
    # application's blocks, by reference.
    assert any(len(payload) == workloads.CHUNK for payload in payloads)


def _scan_event_mix(events: int) -> list:
    """``(time, kind, fields)`` for the four events a scanned flow
    journals, with the fields ``scan_journaled`` gives them, ``events``
    in all.  A flow's verdict is issued and applied a little after the
    flow is created; its rules go in at the verdict's instant."""
    mix = []
    for index in range(events // 4):
        start = 0.031 * (index + 1)
        vlan = index % 16 + 2
        flow = f"scan-{index % 2}/vlan{vlan}/mux{index}/t{start:.6f}"
        common = dict(flow=flow, vlan=vlan)
        mix += [
            (start, "flow.created", dict(
                common, parent=ROOT, proto="tcp",
                destination=f"10.9.{index % 250}.7")),
            (start + 0.004, "verdict.issued", dict(
                common, server="cs-0", verdict="DROP", policy="worm-dsl",
                trigger_rules=0, trigger_suspended=False)),
            (start + 0.008, "verdict.applied", dict(
                common, verdict="DROP", proto="tcp", policy="worm-dsl",
                annotation="rule 3")),
            (start + 0.008, "fastpath.install", dict(
                common, phase="dropped", handlers=2)),
        ]
    return mix


def _replay(mix: list) -> Journal:
    """A fresh journal holding ``mix``, each event at its own time."""
    clock = [0.0]
    journal = Journal(clock=lambda: clock[0])
    for time, kind, fields in mix:
        clock[0] = time
        journal.record(kind, **fields)
    return journal


def _scan_shaped_journal(events: int) -> Journal:
    return _replay(_scan_event_mix(events))


def _digest_peak(events: int) -> int:
    journal = _scan_shaped_journal(events)
    tracemalloc.start()
    try:
        journal.digest()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_journal_digest_peak_does_not_grow_with_the_journal():
    small, large = _digest_peak(3_000), _digest_peak(30_000)
    # One chunk of events either way: 2.24 and 2.26 MB at 1,024 events
    # a chunk, 0.16 and 0.16 MB at 64.  The whole-text digest before
    # it: 4.6 and 20.8 MB.
    assert large <= 1.5 * small, (small, large)
    assert large <= MAX_DIGEST_PEAK_BYTES, large


def test_journal_bytes_per_event():
    """What the journal holds per event of the scan's mix: the ring's
    row, its seq and time, and the flow's last-event entry — not the
    values the recording sites hand it, which exist either way."""
    mix = _scan_event_mix(30_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        journal = _replay(mix)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(journal) == len(mix)
    assert held / len(mix) <= MAX_JOURNAL_BYTES_PER_EVENT, held / len(mix)
