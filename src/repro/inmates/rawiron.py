"""Raw iron management (§6.4).

VM-detecting anti-forensics is sidestepped, not countered: "GQ
bypasses this problem by providing a group of identically configured
small form-factor x86 systems running on a network-controlled power
sequencer to enable remote, OS-independent reboots."

Reimaging state machine, verbatim from the paper:

1. Configure the controller's DHCP server to send PXE boot
   information for the machine.
2. Power-cycle it; the network boot installs a small Linux image
   (Trinity Rescue Kit), which downloads a compressed Windows image
   and writes it to disk with NTFS-aware tools.
3. Disable network-booting; power-cycle again; the machine boots the
   freshly installed local image.

"This process takes around 6 minutes per reimaging cycle."  The
alternate flavour restores from a hidden second Linux partition:
slightly slower (~10 minutes) "but supports efficient reimaging of
all raw-iron systems simultaneously."
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

from repro.sim.engine import Simulator

# Phase durations (seconds) that add up to the paper's ~6-minute
# network reimage cycle and ~10-minute local-partition restore.
POWER_CYCLE_TIME = 10.0
PXE_BOOT_TIME = 20.0
IMAGE_TRANSFER_TIME = 240.0   # compressed Windows image over TFTP/NFS
IMAGE_WRITE_TIME = 60.0       # NTFS-aware write to disk
LOCAL_RESTORE_TIME = 540.0    # hidden-partition restore (no network)
LOCAL_BOOT_TIME = 30.0
#: Power-cycle to the fresh image booting, per strategy, as the
#: controller runs the phases (340 s and 560 s); ``RawIronBackend``
#: reverts in these.
NETWORK_REIMAGE_CYCLE = (2 * POWER_CYCLE_TIME + PXE_BOOT_TIME
                         + IMAGE_TRANSFER_TIME + IMAGE_WRITE_TIME)
LOCAL_RESTORE_CYCLE = 2 * POWER_CYCLE_TIME + LOCAL_RESTORE_TIME


class MachineState(enum.Enum):
    """Where a raw-iron box is in its boot/reimage cycle."""

    OFF = "off"
    LOCAL_BOOT = "local-boot"        # running the inmate OS
    PXE_BOOT = "pxe-boot"
    IMAGE_TRANSFER = "image-transfer"
    IMAGE_WRITE = "image-write"
    LOCAL_RESTORE = "local-restore"


class RawIronMachine:
    """One small form-factor x86 system on its exclusive VLAN."""

    def __init__(self, machine_id: str, vlan: int) -> None:
        self.machine_id = machine_id
        self.vlan = vlan
        self.state = MachineState.OFF
        self.network_boot_enabled = False
        self.power_cycles = 0
        self.reimages_completed = 0
        self.history: List[str] = []

    def __repr__(self) -> str:
        return f"<RawIronMachine {self.machine_id} {self.state.value}>"


class PowerSequencer:
    """The network-controlled power sequencer: remote, OS-independent
    power cycling."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.cycles_issued = 0

    def power_cycle(self, machine: RawIronMachine,
                    on_off: Callable[[], None]) -> None:
        self.cycles_issued += 1
        machine.power_cycles += 1
        machine.state = MachineState.OFF
        machine.history.append(f"{self.sim.now:.0f} power-cycle")
        self.sim.schedule(POWER_CYCLE_TIME, on_off, label="power-cycle")


class RawIronController:
    """Drives reimaging for the raw-iron pool.

    Has a network interface on a VLAN trunk covering all raw-iron
    VLANs (a Click configuration multiplexes it in the real system);
    runs the DHCP/TFTP/NFS servers the PXE boots talk to.  Both are
    modelled as the controller's direct command over machine boot
    configuration plus the phase timings above.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.sequencer = PowerSequencer(sim)
        self.machines: Dict[str, RawIronMachine] = {}
        self._next_vlan = 3900  # raw-iron VLAN block
        self.reimage_log: List[tuple] = []

    def add_machine(self, machine_id: str,
                    vlan: Optional[int] = None) -> RawIronMachine:
        if machine_id in self.machines:
            raise ValueError(f"machine {machine_id!r} already registered")
        if vlan is None:
            vlan = self._next_vlan
            self._next_vlan += 1
        machine = RawIronMachine(machine_id, vlan)
        self.machines[machine_id] = machine
        return machine

    # ------------------------------------------------------------------
    # Network reimage (~6 minutes per machine)
    # ------------------------------------------------------------------
    def reimage(self, machine_id: str,
                on_done: Optional[Callable[[RawIronMachine], None]] = None
                ) -> None:
        machine = self.machines[machine_id]
        started = self.sim.now
        # Step 1: PXE on, power cycle into network boot.
        machine.network_boot_enabled = True
        self.sequencer.power_cycle(
            machine, lambda: self._pxe_boot(machine, started, on_done))

    def _pxe_boot(self, machine: RawIronMachine, started: float,
                  on_done) -> None:
        machine.state = MachineState.PXE_BOOT
        machine.history.append(f"{self.sim.now:.0f} pxe-boot (TRK)")
        self.sim.schedule(PXE_BOOT_TIME, self._transfer, machine, started,
                          on_done, label="pxe-boot")

    def _transfer(self, machine: RawIronMachine, started: float,
                  on_done) -> None:
        machine.state = MachineState.IMAGE_TRANSFER
        machine.history.append(f"{self.sim.now:.0f} image-transfer")
        self.sim.schedule(IMAGE_TRANSFER_TIME, self._write, machine,
                          started, on_done, label="image-transfer")

    def _write(self, machine: RawIronMachine, started: float,
               on_done) -> None:
        machine.state = MachineState.IMAGE_WRITE
        machine.history.append(f"{self.sim.now:.0f} image-write")
        self.sim.schedule(IMAGE_WRITE_TIME, self._finish_network, machine,
                          started, on_done, label="image-write")

    def _finish_network(self, machine: RawIronMachine, started: float,
                        on_done) -> None:
        # Step 3: PXE off, power cycle into the fresh local image.
        machine.network_boot_enabled = False
        self.sequencer.power_cycle(
            machine, lambda: self._local_boot(machine, started, on_done))

    # ------------------------------------------------------------------
    # Local-partition restore (~10 minutes, parallel across the pool)
    # ------------------------------------------------------------------
    def restore_all_from_local_partition(
        self,
        on_done: Optional[Callable[[RawIronMachine], None]] = None,
    ) -> None:
        """Reimage every machine simultaneously from the hidden
        partition — slower per machine, far faster for the pool."""
        for machine in self.machines.values():
            started = self.sim.now
            self.sequencer.power_cycle(
                machine,
                lambda m=machine, s=started: self._local_restore(m, s, on_done),
            )

    def _local_restore(self, machine: RawIronMachine, started: float,
                       on_done) -> None:
        machine.state = MachineState.LOCAL_RESTORE
        machine.history.append(f"{self.sim.now:.0f} local-restore")
        self.sim.schedule(
            LOCAL_RESTORE_TIME,
            lambda: self._finish_local(machine, started, on_done),
            label="local-restore",
        )

    def _finish_local(self, machine: RawIronMachine, started: float,
                      on_done) -> None:
        self.sequencer.power_cycle(
            machine, lambda: self._local_boot(machine, started, on_done))

    # ------------------------------------------------------------------
    def _local_boot(self, machine: RawIronMachine, started: float,
                    on_done) -> None:
        machine.state = MachineState.LOCAL_BOOT
        machine.reimages_completed += 1
        elapsed = self.sim.now - started
        machine.history.append(
            f"{self.sim.now:.0f} local-boot (cycle {elapsed:.0f}s)")
        self.reimage_log.append((machine.machine_id, started, self.sim.now))
        if on_done is not None:
            self.sim.schedule(LOCAL_BOOT_TIME, on_done, machine,
                              label="local-boot")

    def cycle_times(self) -> List[float]:
        return [end - start for _id, start, end in self.reimage_log]
