"""What a finished flow leaves behind, counted by ``tracemalloc`` and
the garbage collector rather than read off RSS.

GQ records for the life of a deployment (§5.6), so what the gateway
keeps of a flow after it has closed bounds how long a farm can run
(docs/PERFORMANCE.md, "Flow memory").  On a churn-shaped farm whose
fetches have all finished:

* no :class:`~repro.gateway.flows.FlowRecord` of a finished TCP flow
  under an endpoint verdict is alive, nor any flow-table row, rewrite
  or installed rule that names one: the router releases them the
  moment the flow closes, and keeps no history of records;
* what the run still holds, outside the packet traces
  (``repro/net/capture.py``, budgeted by ``make trace-budget``), stays
  within :data:`BYTES_PER_FETCH` per finished fetch.

And on a small ``scan_journaled``-shaped farm, once its probes are
over, every record a router still holds is a dropped datagram flow:
the one kind with no end on the wire (a TCP DROP ends at its verdict,
a probe that half-closed before its verdict at its close).
"""

from __future__ import annotations

import gc
import os
import sys
import tracemalloc
from functools import lru_cache

from repro.core.verdicts import Verdict
from repro.gateway.flows import FlowRecord
from repro.gateway.flowtable import Row
from repro.net import capture
from repro.net.packet import PROTO_TCP, PROTO_UDP
from tests.helpers import churn_farm

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                "benchmarks", "ledger"))
import workloads  # noqa: E402

#: Bytes held per finished fetch once the run is over: 3,654 when every
#: closed flow kept its record, rows, rules and verdict until an idle
#: sweep and its record for the rest of the run.
BYTES_PER_FETCH = 1500

STOP = 120.0


def _finished_flow_state(objects) -> list:
    """Records of TCP flows under an endpoint verdict, and the rows
    that name one."""
    def endpoint_tcp(record) -> bool:
        decision = record.decision
        return (record.orig.proto == PROTO_TCP and decision is not None
                and not decision.verdict & (Verdict.DROP | Verdict.REWRITE))

    return [obj for obj in objects
            if (isinstance(obj, FlowRecord) and endpoint_tcp(obj))
            or (isinstance(obj, Row) and endpoint_tcp(obj.record))]


@lru_cache(maxsize=1)
def _run_churn():
    """``(farm, fetched, bytes held)``: the run from the first fetch to
    well past the last one's close, traced."""
    farm, fetched = churn_farm(seed=11, subfarms=1, inmates_per=6,
                               stop=STOP)
    farm.run(until=30.0)   # DHCP done, no fetch yet
    gc.collect()
    tracemalloc.start()
    try:
        farm.run(until=STOP + 10.0)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(stat.size for stat in snapshot.statistics("filename")
               if stat.traceback[0].filename != capture.__file__)
    return farm, fetched, held


def test_a_finished_flow_leaves_no_record_row_or_rule():
    farm, fetched, _held = _run_churn()
    assert len(fetched) >= 200 and all(fetched)
    (sub,) = farm.subfarms.values()
    assert sub.router.counters["flows_created"] == len(fetched)
    gc.collect()
    left = _finished_flow_state(gc.get_objects())
    assert left == [], (len(left), left[:4])


def test_bytes_held_per_finished_fetch():
    _farm, fetched, held = _run_churn()
    assert len(fetched) >= 200 and all(fetched)
    assert held / len(fetched) <= BYTES_PER_FETCH, held / len(fetched)


def test_a_scan_holds_only_its_dropped_datagram_flows():
    built = workloads.build_scan(seed=11, seconds=0.5)
    built.farm.run(until=built.until)
    routers = [sub.router for sub in built.farm.subfarms.values()]
    assert sum(router.counters["flows_created"] for router in routers) > 400
    held = [record for router in routers
            for record in router._by_mux.values()]
    assert held and all(record.orig.proto == PROTO_UDP
                        and record.verdict_name == "DROP"
                        for record in held), sorted(
        {(record.orig.proto, record.verdict_name) for record in held})
