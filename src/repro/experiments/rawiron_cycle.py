"""§6.4 raw-iron reimaging timings.

"This process takes around 6 minutes per reimaging cycle" (network
boot + image transfer), and the hidden-partition alternative is
"slightly slower (around 10 minutes) but supports efficient reimaging
of all raw-iron systems simultaneously".  The experiment reimages a
pool both ways and reports per-machine cycle times plus the
whole-pool turnaround, which is where the local-partition variant
wins.
"""

from __future__ import annotations

from typing import Dict, List

from repro.inmates.rawiron import RawIronController
from repro.sim.engine import Simulator


class RawIronResult:
    def __init__(self, strategy: str, machines: int) -> None:
        self.strategy = strategy
        self.machines = machines
        self.cycle_times: List[float] = []
        self.pool_turnaround = 0.0

    @property
    def mean_cycle(self) -> float:
        if not self.cycle_times:
            return 0.0
        return sum(self.cycle_times) / len(self.cycle_times)

    def __repr__(self) -> str:
        return (
            f"<RawIron {self.strategy}: cycle={self.mean_cycle:.0f}s "
            f"pool={self.pool_turnaround:.0f}s>"
        )


def run_network_reimage(machines: int = 4, seed: int = 0) -> RawIronResult:
    """Sequential network reimaging (one controller, one TFTP path)."""
    sim = Simulator(seed=seed)
    controller = RawIronController(sim)
    for index in range(machines):
        controller.add_machine(f"ri{index}")

    pending = list(controller.machines)

    def next_machine(_finished=None) -> None:
        if pending:
            controller.reimage(pending.pop(0), on_done=next_machine)

    next_machine()
    started = sim.now
    sim.run(until=machines * 1200.0)
    result = RawIronResult("network-boot", machines)
    result.cycle_times = controller.cycle_times()
    result.pool_turnaround = (controller.reimage_log[-1][2] - started
                              if controller.reimage_log else 0.0)
    return result


def run_local_restore(machines: int = 4, seed: int = 0) -> RawIronResult:
    """Simultaneous hidden-partition restore across the pool."""
    sim = Simulator(seed=seed)
    controller = RawIronController(sim)
    for index in range(machines):
        controller.add_machine(f"ri{index}")
    controller.restore_all_from_local_partition()
    started = sim.now
    sim.run(until=3600.0)
    result = RawIronResult("local-partition", machines)
    result.cycle_times = controller.cycle_times()
    result.pool_turnaround = (
        max(end for _id, _start, end in controller.reimage_log) - started
        if controller.reimage_log else 0.0
    )
    return result


def run_comparison(machines: int = 4) -> Dict[str, RawIronResult]:
    return {
        "network-boot": run_network_reimage(machines),
        "local-partition": run_local_restore(machines),
    }


def render(comparison: Dict[str, RawIronResult]) -> str:
    lines = [
        "Raw iron reimaging (§6.4)",
        "",
        f"{'STRATEGY':<16} {'PER-MACHINE CYCLE':>17} "
        f"{'POOL TURNAROUND (4 MACHINES)':>28}",
        "-" * 64,
    ]
    for result in comparison.values():
        lines.append(
            f"{result.strategy:<16} {result.mean_cycle:>15.0f}s "
            f"{result.pool_turnaround:>27.0f}s"
        )
    lines.append("-" * 64)
    lines.append(
        'Paper: network boot is "around 6 minutes per reimaging cycle"; '
        'the hidden-\npartition restore is "slightly slower (around 10 '
        'minutes) but supports\nefficient reimaging of all raw-iron '
        'systems simultaneously".'
    )
    return "\n".join(lines)
