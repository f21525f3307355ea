"""Shared test fixtures and topology builders."""

from __future__ import annotations

import gc
import sys
from collections import Counter
from typing import Callable, List, Tuple

from repro.net.addresses import IPv4Address
from repro.net.host import Host
from repro.net.link import Link, Switch
from repro.sim.engine import Simulator


def python_calls(fn: Callable[[], object]) -> Counter:
    """Run ``fn`` and count Python-level calls by
    ``(file basename, function name)``; C calls are not counted."""
    calls: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[(code.co_filename.rpartition("/")[2], code.co_name)] += 1

    # A cyclic-GC pass in the middle of ``fn`` would run whatever
    # finalizers earlier tests left behind (a suspended generator is
    # resumed to be closed) and charge their frames to ``fn``.
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def lan(
    num_hosts: int = 2, seed: int = 7, subnet: str = "10.0.0."
) -> Tuple[Simulator, Switch, List[Host]]:
    """A flat LAN: ``num_hosts`` hosts on one access-VLAN switch."""
    sim = Simulator(seed=seed)
    switch = Switch(sim, "lan")
    hosts = []
    for i in range(num_hosts):
        host = Host(sim, f"h{i}", ip=IPv4Address(f"{subnet}{i + 1}"))
        Link(sim, host.attach_port(), switch.attach_port(access_vlan=1))
        hosts.append(host)
    return sim, switch, hosts
