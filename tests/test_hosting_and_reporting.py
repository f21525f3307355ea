"""Hosting backends, raw iron controller units, report scheduler."""

from __future__ import annotations

import pytest

from repro.inmates.hosting import (
    EmulatedBackend,
    Inmate,
    InmateState,
    RawIronBackend,
    VirtualizedBackend,
)
from repro.inmates.rawiron import MachineState, RawIronController
from repro.net.link import Switch
from repro.sim.engine import Simulator


def make_inmate(backend=None, seed=7):
    sim = Simulator(seed=seed)
    switch = Switch(sim)
    booted = []

    def image(host):
        booted.append(host)
        host.platform_seen = host.platform  # type: ignore[attr-defined]

    inmate = Inmate(sim, vlan=5, switch=switch, image_factory=image,
                    backend=backend)
    return sim, inmate, booted


class TestHostingBackends:
    def test_vm_backend_is_detectable(self):
        sim, inmate, booted = make_inmate(VirtualizedBackend())
        inmate.start()
        sim.run(until=120)
        host = booted[0]
        assert host.virtualized is True
        assert host.platform == "vmware-esx"

    def test_raw_iron_is_not_detectable(self):
        """§6.4: raw iron exists to defeat VM-detection; a specimen
        checking the platform sees nothing."""
        sim, inmate, booted = make_inmate(RawIronBackend())
        inmate.start()
        sim.run(until=120)
        assert booted[0].virtualized is False
        assert booted[0].platform == "raw-iron"

    def test_revert_latency_ordering(self):
        # Snapshots beat emulation beat raw-iron reimaging.
        assert (VirtualizedBackend().revert_latency
                < EmulatedBackend().revert_latency
                < RawIronBackend().revert_latency)

    @pytest.mark.parametrize("local", [False, True],
                             ids=["network-boot", "local-partition"])
    def test_raw_iron_revert_takes_the_controllers_cycle(self, local):
        """A reverted raw-iron inmate runs again when the controller's
        reimage of its machine has booted: the cycle plus local boot."""
        sim = Simulator(seed=7)
        controller = RawIronController(sim)
        controller.add_machine("ri0")
        booted_at = []
        if local:
            controller.restore_all_from_local_partition(
                on_done=lambda _machine: booted_at.append(sim.now))
        else:
            controller.reimage(
                "ri0", on_done=lambda _machine: booted_at.append(sim.now))
        sim.run()
        sim, inmate, _ = make_inmate(
            RawIronBackend(local_partition_restore=local))
        inmate.start()
        sim.run()
        reverted = sim.now
        inmate.revert()
        assert sim.run() == reverted + booted_at[0]
        assert inmate.state is InmateState.RUNNING

    def test_reboot_keeps_generation(self):
        sim, inmate, booted = make_inmate()
        inmate.start()
        sim.run(until=120)
        generation = inmate.generation
        inmate.reboot()
        sim.run(until=240)
        assert inmate.generation == generation + 1  # fresh host object
        assert inmate.reverts == 0

    def test_terminate_is_final(self):
        sim, inmate, booted = make_inmate()
        inmate.start()
        sim.run(until=120)
        inmate.terminate()
        assert inmate.state == InmateState.TERMINATED
        with pytest.raises(RuntimeError):
            inmate.start()

    def test_stop_then_start(self):
        sim, inmate, booted = make_inmate()
        inmate.start()
        sim.run(until=120)
        inmate.stop()
        assert inmate.state == InmateState.STOPPED
        inmate.start()
        sim.run(until=240)
        assert inmate.state == InmateState.RUNNING


class TestRawIronController:
    def test_network_reimage_phase_sequence(self):
        sim = Simulator(seed=1)
        controller = RawIronController(sim)
        machine = controller.add_machine("ri0")
        done = []
        controller.reimage("ri0", on_done=lambda m: done.append(m))
        sim.run(until=1000)
        assert done == [machine]
        assert machine.state == MachineState.LOCAL_BOOT
        assert machine.power_cycles == 2  # into PXE, then into local
        assert not machine.network_boot_enabled
        phases = [entry.split(" ", 1)[1] for entry in machine.history]
        assert phases[:4] == ["power-cycle", "pxe-boot (TRK)",
                              "image-transfer", "image-write"]

    def test_cycle_time_near_six_minutes(self):
        sim = Simulator(seed=1)
        controller = RawIronController(sim)
        controller.add_machine("ri0")
        controller.reimage("ri0")
        sim.run(until=1000)
        (machine_id, start, end), = controller.reimage_log
        assert 300 <= end - start <= 420

    def test_parallel_local_restore(self):
        sim = Simulator(seed=1)
        controller = RawIronController(sim)
        for index in range(6):
            controller.add_machine(f"ri{index}")
        controller.restore_all_from_local_partition()
        sim.run(until=2000)
        assert len(controller.reimage_log) == 6
        ends = [end for _id, _start, end in controller.reimage_log]
        assert max(ends) - min(ends) < 1.0, "restores run simultaneously"

    def test_unique_vlans_per_machine(self):
        sim = Simulator(seed=1)
        controller = RawIronController(sim)
        machines = [controller.add_machine(f"ri{i}") for i in range(5)]
        vlans = {m.vlan for m in machines}
        assert len(vlans) == 5


class TestReportScheduler:
    def test_periodic_reports_accumulate(self):
        from repro.core.policy import ReflectAll
        from repro.farm import Farm, FarmConfig
        from repro.reporting.report import ReportScheduler
        from tests.test_containment_end_to_end import http_fetch_image

        farm = Farm(FarmConfig(seed=121))
        sub = farm.create_subfarm("test")
        sub.add_catchall_sink()
        image, _results = http_fetch_image()
        sub.create_inmate(image_factory=image, policy=ReflectAll())
        scheduler = ReportScheduler(farm.sim, [sub], interval=300.0)
        farm.run(until=1000)
        assert len(scheduler.reports) == 3  # t=300, 600, 900
        timestamp, rendered = scheduler.reports[-1]
        assert "Subfarm 'test'" in rendered
        assert "REFLECT" in rendered
