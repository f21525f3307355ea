"""The gateway kernel's budget, counted rather than timed, on whole
farms with telemetry off.

``tests/test_hop_budget.py`` pins what one hop and one table hit may
cost in isolation; these tests pin what a unit of *work* costs the
whole farm in Python frames (docs/PERFORMANCE.md, "The gateway
kernel"): an echo round on a ``stream_bulk``-shaped farm, an HTTP fetch
on a ``flow_churn``-shaped one.  The farms are the layer ledger's own
(``benchmarks/ledger/workloads.py``), so the budget is held on the
shapes the benchmark times.

A per-packet path runs no ``IPv4Address``/``MacAddress``
``__hash__``/``__eq__`` (every per-packet table is int-keyed), makes no
instrument call while telemetry is off, and never asks a router whether
it owns an address.

The flow table is the router's one lookup structure
(docs/PERFORMANCE.md, "The flow table and the controller"): with
counting dicts in place of the table and of the router's other per-flow
maps, every TCP/UDP packet entering through ``inmate_frame`` /
``service_frame`` / ``upstream_packet`` is probed for exactly once, by
``_lookup``, in every phase of a flow's life, and finds its leg without
any other per-flow map being read.

``python -m tests.test_forwarding_budget`` prints the frames-by-file
table behind the two budgets (``make budget``).
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                "benchmarks", "ledger"))
import workloads  # noqa: E402

from repro.core.dsl import DslPolicy  # noqa: E402
from repro.farm import Farm, FarmConfig  # noqa: E402
from repro.net.addresses import IPv4Address  # noqa: E402
from repro.services.dhcp import DhcpClient  # noqa: E402
from tests.helpers import python_calls  # noqa: E402

#: 234 at the parent of the gateway kernel, 179 with it, 147 with the
#: three-frame link hop.
FRAMES_PER_ECHO_ROUND = 152
#: 1,262 at the parent of the gateway kernel, 948 with it, 945 with the
#: coupled legs in the flow table, 831 with the three-frame link hop,
#: 803 with verdict flags tested against int masks (enum.py: 33 -> 3;
#: the bound is that figure + 5 %).
FRAMES_PER_FETCH = 843
#: The router's own share of a fetch, gateway/router.py and the
#: controller modules split from it (the backbone router of the world
#: model shares the basename and 22 of these): 155.5 before the split.
ROUTER_FAMILY = ("router.py", "admission.py", "coupling.py", "handoff.py",
                 "housekeeping.py")
ROUTER_FRAMES_PER_FETCH = 155.5


def _frames_by_file(calls) -> dict:
    by_file: dict = {}
    for (filename, _function), count in calls.items():
        by_file[filename] = by_file.get(filename, 0) + count
    return by_file


def _stream_window():
    """``(farm, calls, echo rounds)`` over two steady-state virtual
    seconds of the stream farm."""
    built = workloads.build_stream(seed=11, seconds=0.2)
    farm, app = built.farm, built.app
    # Every inmate has its verdict and its entries by now: what follows
    # is table hits only.
    farm.run(until=32.0)
    before = app.progress
    calls = python_calls(lambda: farm.run(until=34.0))
    assert app.correct == app.progress
    return farm, calls, app.progress - before


def _churn_window(subfarms: int):
    """``(farm, calls, fetches, upstream packets)`` over twelve virtual
    seconds of the churn farm."""
    built = workloads.build_churn(seed=11, seconds=2.0, subfarms=subfarms,
                                  inmates_per=12)
    farm, app = built.farm, built.app
    farm.run(until=40.0)
    # What reaches the gateway's upstream port is what the backbone's
    # end of that link sent.
    backbone_port = farm.gateway.upstream_port.peer
    before, packets_before = app.progress, backbone_port.frames_sent
    calls = python_calls(lambda: farm.run(until=52.0))
    assert app.correct == app.progress
    return (farm, calls, app.progress - before,
            backbone_port.frames_sent - packets_before)


def test_echo_round_budget_on_a_stream_shaped_farm():
    farm, calls, rounds = _stream_window()
    assert rounds > 200
    assert 8 == sum(sub.router.counters["flows_created"]
                    for sub in farm.subfarms.values())

    by_file = _frames_by_file(calls)
    assert "addresses.py" not in by_file, {
        key: count for key, count in calls.items()
        if key[0] == "addresses.py"}
    assert "metrics.py" not in by_file
    per_round = sum(calls.values()) / rounds
    assert per_round <= FRAMES_PER_ECHO_ROUND, (per_round, sorted(
        by_file.items(), key=lambda item: -item[1]))


@pytest.mark.parametrize("subfarms", [1, 6])
def test_fetch_budget_and_upstream_demux_on_a_churn_shaped_farm(subfarms):
    _farm, calls, fetches, upstream_packets = _churn_window(subfarms)
    assert fetches >= 50 * subfarms
    assert upstream_packets >= 4 * fetches   # five per fetch

    # The upstream demux is one dict probe, however many subfarms
    # there are: no router is asked.
    assert calls[("router.py", "owns_global")] == 0
    assert calls[("nat.py", "vlan_for_global")] == 0
    # Flow setup builds addresses (shim decode); it never hashes or
    # compares one.
    assert not [key for key in calls if key[0] == "addresses.py"
                and key[1] in ("__hash__", "__eq__")]
    per_fetch = sum(calls.values()) / fetches
    by_file = _frames_by_file(calls)
    assert per_fetch <= FRAMES_PER_FETCH, (per_fetch, sorted(
        by_file.items(), key=lambda item: -item[1]))
    assert sum(by_file.get(name, 0) for name in ROUTER_FAMILY) / fetches \
        <= ROUTER_FRAMES_PER_FETCH


# ----------------------------------------------------------------------
# One probe per packet
# ----------------------------------------------------------------------
class _Probed(dict):
    """A dict that counts its reads by the function that made them."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.reads: Counter = Counter()

    def _note(self) -> None:
        self.reads[sys._getframe(2).f_code.co_name] += 1

    def get(self, key, default=None):
        self._note()
        return super().get(key, default)

    def __getitem__(self, key):
        self._note()
        return super().__getitem__(key)

    def __contains__(self, key) -> bool:
        self._note()
        return super().__contains__(key)

    def pop(self, key, *default):
        self._note()
        return super().pop(key, *default)


def _probe_router(router):
    """Counting dicts in place of the router's table and of its other
    per-flow maps; returns ``(table, others)``."""
    table = _Probed(router.flowtable.entries)
    router.flowtable.entries = router._table = table
    others = {}
    for name in ("_by_mux", "_by_nonce", "_trace_ids"):
        others[name] = _Probed(getattr(router, name))
        setattr(router, name, others[name])
    return table, others


def _assert_one_probe_per_packet(table, others, calls) -> int:
    entered = sum(calls[("router.py", name)] for name in
                  ("inmate_frame", "service_frame", "upstream_packet"))
    # Every packet that entered was looked up, once, with one ``get``;
    # no handler on its way probed the table again.  (Binding a row
    # swaps it in with ``pop``; the controller reads a row it has just
    # re-installed, and the opening packet's coupled row, by item.)
    assert table.reads["_lookup"] == entered
    assert set(table.reads) <= {"_lookup", "bind", "offer",
                                "from_originator", "from_return"}
    assert table.reads["offer"] <= others["_by_mux"].reads["allocate_slot"]
    assert (table.reads["from_originator"] + table.reads["from_return"]
            <= calls[("handoff.py", "install")])
    # A flow is created under a free slot; nothing else reads a
    # per-flow map on a packet's way.
    assert set(others["_by_mux"].reads) <= {"allocate_slot"}
    assert not others["_by_nonce"].reads and not others["_trace_ids"].reads
    return entered


def test_one_probe_per_packet_over_whole_fetches():
    """SHIM, HANDOFF, ENFORCED and teardown, on a churn-shaped farm."""
    built = workloads.build_churn(seed=11, seconds=2.0, subfarms=1,
                                  inmates_per=12)
    farm, app = built.farm, built.app
    farm.run(until=40.0)
    (sub,) = farm.subfarms.values()
    table, others = _probe_router(sub.router)
    before = app.progress
    calls = python_calls(lambda: farm.run(until=52.0))
    assert app.correct == app.progress and app.progress - before >= 50
    entered = _assert_one_probe_per_packet(table, others, calls)
    stats = sub.router.flowtable.stats()
    assert entered >= 15 * (app.progress - before)
    assert stats["hits"] and stats["misses"] and stats["installs"]


def test_one_probe_per_packet_for_drop_and_udp_reflect_probes():
    target = IPv4Address("198.51.100.99")

    def image(host):
        def configured(h):
            h.sim.schedule_at(35.0, h.tcp.connect, target, 135)
            h.sim.schedule_at(36.0, h.udp.sendto, b"probe", target, 1434,
                              5353)
            h.sim.schedule_at(37.0, h.udp.sendto, b"again", target, 1434,
                              5353)

        DhcpClient(host, on_configured=configured).start()

    farm = Farm(FarmConfig(seed=11))
    sub = farm.create_subfarm("probes")
    sink = sub.add_catchall_sink()
    sub.set_default_policy(DslPolicy(
        "port 135/tcp -> drop\nport 1434/udp -> reflect sink\n"
        "default -> drop"))
    sub.create_inmate(image_factory=image)
    farm.run(until=34.0)
    table, others = _probe_router(sub.router)
    calls = python_calls(lambda: farm.run(until=40.0))
    assert _assert_one_probe_per_packet(table, others, calls) >= 6
    assert [entry.verdict for entry in sub.router.flow_log] == [
        "DROP", "REFLECT"]
    assert sink.datagrams_received == 2   # held-and-replayed, then a hit
    assert sub.router.flowtable.stats()["hits"] >= 1


def main() -> None:
    _farm, stream, rounds = _stream_window()
    _farm, churn, fetches, _packets = _churn_window(6)
    per_round = {name: count / rounds
                 for name, count in _frames_by_file(stream).items()}
    per_fetch = {name: count / fetches
                 for name, count in _frames_by_file(churn).items()}
    print(f"{'Python frames by file':<24}{'per echo round':>16}"
          f"{'per fetch':>12}")
    for name in sorted(set(per_round) | set(per_fetch),
                       key=lambda name: -per_fetch.get(name, 0.0)):
        print(f"{name:<24}{per_round.get(name, 0.0):>16.1f}"
              f"{per_fetch.get(name, 0.0):>12.1f}")
    print(f"{'total':<24}{sum(per_round.values()):>16.1f}"
          f"{sum(per_fetch.values()):>12.1f}")
    print(f"{'budget':<24}{FRAMES_PER_ECHO_ROUND:>16}"
          f"{FRAMES_PER_FETCH:>12}")


if __name__ == "__main__":
    main()
