"""What a run holds per captured frame and per exported event, counted
by ``tracemalloc`` rather than read off RSS.

GQ records every frame twice for the life of a deployment (§5.6), so
the bytes a run holds per frame bound how long a farm can record
(docs/PERFORMANCE.md, "Trace memory").  Two budgets:

* **one copy per payload** — an application's ``bytes`` write is the
  payload of its segment, in both traces and at the peer, so on the
  ledger's stream shape no ``bytes`` object allocated in
  ``net/tcp.py`` is kept alive by a trace: the send path allocates
  none for a write that fits one segment (it used to copy every
  segment out of a ``bytearray``, one object per data segment);
* **a streaming journal digest** — ``Journal.digest()`` hashes the
  canonical text a chunk of events at a time, so what it allocates at
  its peak does not grow with the journal (the whole-text digest held
  the snapshot, its text and the text's encoding at once).
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


def _scan_shaped_journal(events: int) -> Journal:
    """The four events a scanned flow journals, as ``scan_journaled``
    records them, ``events`` in all."""
    clock = [0.0]
    journal = Journal(clock=lambda: clock[0])
    for index in range(events // 4):
        clock[0] += 0.031
        flow = f"scan/vlan{index % 16 + 2}/mux{index}"
        vlan = index % 16 + 2
        journal.record("flow.created", flow=flow, vlan=vlan, parent=ROOT,
                       proto="tcp", destination=f"10.9.{index % 250}.7:445")
        journal.record("verdict.issued", flow=flow, vlan=vlan,
                       server="cs-0", verdict="DROP", policy="worm-dsl",
                       trigger_rules=[], trigger_suspended=False)
        journal.record("verdict.applied", flow=flow, vlan=vlan,
                       verdict="DROP", proto="tcp", policy="worm-dsl",
                       annotation="rule 3")
        journal.record("fastpath.install", flow=flow, vlan=vlan,
                       phase="dropped", handlers=2)
    return journal


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
    # One chunk of events either way: 2.19 and 2.21 MB.  The whole-text
    # digest before it: 4.6 and 20.8 MB.
    assert large <= 1.5 * small, (small, large)
