"""Inmate hosting backends and the inmate life-cycle (§5.2, §6.3).

GQ hosts inmates on VMware ESX (full-system virtualization), QEMU
(customized emulation), and unvirtualized "raw iron" — transparently
to the gateway.  The reproduction models each backend by its two
containment-relevant properties:

* life-cycle latencies (boot / revert-to-snapshot / reimage), and
* whether a specimen can *detect* the platform as virtualized (§6.4:
  VM-detecting anti-forensics is the reason raw iron exists).

An :class:`Inmate` owns the simulated machine on its VLAN.  Reverting
replaces the host with a fresh one built by the image factory —
exactly what restoring a snapshot or reimaging a disk does — after the
backend's revert latency.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

from repro.inmates.rawiron import (
    LOCAL_BOOT_TIME,
    LOCAL_RESTORE_CYCLE,
    NETWORK_REIMAGE_CYCLE,
)
from repro.net.host import Host
from repro.net.link import Link, Port, Switch
from repro.sim.engine import Simulator

# ``image_factory(host)`` installs the OS image's boot-time behaviour
# (DHCP client, infection script, vulnerable services) onto a host.
ImageFactory = Callable[[Host], None]


class InmateState(enum.Enum):
    """The inmate life-cycle states (§5.5 actions move between them)."""

    STOPPED = "stopped"
    BOOTING = "booting"
    RUNNING = "running"
    REVERTING = "reverting"
    TERMINATED = "terminated"


class HostingBackend:
    """Base hosting backend: latencies plus platform fingerprint."""

    platform = "generic"
    #: Can VM-detection anti-forensics spot this platform?
    detectable_virtualization = False
    boot_latency = 20.0
    revert_latency = 45.0

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class VirtualizedBackend(HostingBackend):
    """Full-system virtualization (VMware ESX in the paper)."""

    platform = "vmware-esx"
    detectable_virtualization = True
    boot_latency = 30.0
    revert_latency = 25.0  # snapshot restore is fast


class EmulatedBackend(HostingBackend):
    """Whole-system emulation (QEMU, used for customized analysis)."""

    platform = "qemu"
    detectable_virtualization = True
    boot_latency = 90.0   # emulation is slow
    revert_latency = 40.0


class RawIronBackend(HostingBackend):
    """Unvirtualized execution on small form-factor x86 systems.

    Reverting means reimaging through the Raw Iron Controller (§6.4),
    and takes its cycle (:mod:`repro.inmates.rawiron`): around 6
    minutes when network-booting the image, or around 10 when
    restoring from the hidden local partition (which however reimages
    all machines simultaneously); the fresh image then boots locally.
    """

    platform = "raw-iron"
    detectable_virtualization = False
    boot_latency = LOCAL_BOOT_TIME
    revert_latency = NETWORK_REIMAGE_CYCLE

    def __init__(self, local_partition_restore: bool = False) -> None:
        if local_partition_restore:
            self.revert_latency = LOCAL_RESTORE_CYCLE
        self.local_partition_restore = local_partition_restore


class Inmate:
    """One inmate: a VLAN, a hosting backend, and the current host."""

    def __init__(
        self,
        sim: Simulator,
        vlan: int,
        switch: Switch,
        image_factory: ImageFactory,
        backend: Optional[HostingBackend] = None,
        name: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.vlan = vlan
        self.switch = switch
        self.image_factory = image_factory
        self.backend = backend or VirtualizedBackend()
        self.name = name or f"inmate-v{vlan}"

        self.state = InmateState.STOPPED
        self.host: Optional[Host] = None
        self.generation = 0          # bumped on every revert
        self.boots = 0
        self.reverts = 0
        self.infected_with: Optional[str] = None  # current sample id

        self._switch_port: Optional[Port] = None
        self._link: Optional[Link] = None
        self.history: List[str] = []

        # Fault-injection gate (repro.faults): consulted when a revert
        # or boot completes; a True return means the action failed and
        # ``on_lifecycle_failure(event, inmate)`` is notified so the
        # controller can retry with bounded backoff.
        self.lifecycle_faults = None
        self.on_lifecycle_failure: Optional[
            Callable[[str, "Inmate"], None]] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Power on: boot a fresh host from the image."""
        if self.state in (InmateState.BOOTING, InmateState.RUNNING):
            return
        if self.state == InmateState.TERMINATED:
            raise RuntimeError(f"{self.name} is terminated")
        self.state = InmateState.BOOTING
        self._log("boot scheduled")
        self.sim.schedule(self.backend.boot_latency, self._come_up,
                          label=f"{self.name}-boot")

    def _come_up(self) -> None:
        if self.state != InmateState.BOOTING:
            return
        if self.lifecycle_faults is not None and self.lifecycle_faults("boot"):
            self.state = InmateState.STOPPED
            self._log("boot failed")
            if self.on_lifecycle_failure is not None:
                self.on_lifecycle_failure("start", self)
            return
        self.generation += 1
        self.boots += 1
        host = Host(self.sim, f"{self.name}.g{self.generation}")
        host.vlan = self.vlan                     # type: ignore[attr-defined]
        host.platform = self.backend.platform     # type: ignore[attr-defined]
        host.virtualized = (                      # type: ignore[attr-defined]
            self.backend.detectable_virtualization
        )
        self._attach(host)
        self.host = host
        self.state = InmateState.RUNNING
        self._log("running")
        # The image's boot-time behaviour (DHCP, infection script...).
        self.image_factory(host)

    def _attach(self, host: Host) -> None:
        if self._switch_port is None:
            self._switch_port = self.switch.attach_port(access_vlan=self.vlan)
        if self._link is not None:
            self._link.disconnect()
        self._link = Link(self.sim, host.attach_port(), self._switch_port)

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Power off (host keeps its disk state; not modelled further)."""
        if self.state == InmateState.RUNNING and self._link is not None:
            self._link.disconnect()
            self._link = None
        if self.state != InmateState.TERMINATED:
            self.state = InmateState.STOPPED
            self._log("stopped")

    def reboot(self) -> None:
        """Power-cycle without reverting the image."""
        if self.state != InmateState.RUNNING:
            return
        self._log("reboot")
        if self._link is not None:
            self._link.disconnect()
            self._link = None
        self.state = InmateState.BOOTING
        self.sim.schedule(self.backend.boot_latency, self._come_up,
                          label=f"{self.name}-reboot")

    def revert(self) -> None:
        """Restore the clean image (snapshot restore or reimage)."""
        if self.state == InmateState.TERMINATED:
            return
        self.reverts += 1
        self.infected_with = None
        self._log("revert")
        if self._link is not None:
            self._link.disconnect()
            self._link = None
        self.host = None
        self.state = InmateState.REVERTING
        self.sim.schedule(self.backend.revert_latency, self._revert_done,
                          label=f"{self.name}-revert")

    def _revert_done(self) -> None:
        if self.state != InmateState.REVERTING:
            return
        if self.lifecycle_faults is not None and self.lifecycle_faults("revert"):
            self.state = InmateState.STOPPED
            self._log("revert failed")
            if self.on_lifecycle_failure is not None:
                self.on_lifecycle_failure("revert", self)
            return
        self.state = InmateState.BOOTING
        self.sim.schedule(self.backend.boot_latency, self._come_up,
                          label=f"{self.name}-boot")

    def terminate(self) -> None:
        if self._link is not None:
            self._link.disconnect()
            self._link = None
        self.host = None
        self.state = InmateState.TERMINATED
        self._log("terminated")

    # ------------------------------------------------------------------
    def _log(self, event: str) -> None:
        self.history.append(f"{self.sim.now:.1f} {event}")

    def __repr__(self) -> str:
        return (
            f"<Inmate {self.name} vlan={self.vlan} {self.state.value} "
            f"on {self.backend.platform}>"
        )
