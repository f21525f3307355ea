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

``python -m tests.test_forwarding_budget`` prints the frames-by-file
table behind the two budgets (``make budget``).
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                "benchmarks", "ledger"))
import workloads  # noqa: E402

from tests.helpers import python_calls  # noqa: E402

#: 234 at the parent of the gateway kernel, 179 with it.
FRAMES_PER_ECHO_ROUND = 185
#: 1,262 at the parent, ~960 with it.
FRAMES_PER_FETCH = 1000


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
    upstream_port = farm.gateway.upstream_port
    before, packets_before = app.progress, upstream_port.frames_received
    calls = python_calls(lambda: farm.run(until=52.0))
    assert app.correct == app.progress
    return (farm, calls, app.progress - before,
            upstream_port.frames_received - packets_before)


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
    assert per_fetch <= FRAMES_PER_FETCH, (per_fetch, sorted(
        _frames_by_file(calls).items(), key=lambda item: -item[1]))


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
