"""The inmate controller (§5.5, §6.3).

"We structure the inmate controller as a simple message receiver that
interprets the life-cycle control instructions coming in from the
containment servers.  We use a simple text-based message format."

The controller lives centrally on the gateway, holds the inventory of
inmates keyed by VLAN ID, and abstracts the hosting backends.
Containment servers reach it out-of-band via a dedicated interface on
the management network — :class:`LifecycleMessenger` is that client
side, speaking the text protocol over UDP.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.inmates.hosting import Inmate
from repro.net.addresses import IPv4Address
from repro.net.host import Host
from repro.net.packet import IPv4Packet, UDPDatagram
from repro.obs.telemetry import tally
from repro.sim.engine import Simulator

CONTROLLER_PORT = 9048

ACTIONS = ("start", "stop", "reboot", "revert", "terminate")


class InmateController:
    """VLAN-keyed life-cycle executor on the gateway."""

    #: Bounded retry for failed life-cycle completions (fault plane):
    #: a failed revert/boot is retried up to ``RETRY_LIMIT`` times,
    #: retry ``n`` after ``RETRY_BACKOFF * 2 ** n`` virtual seconds,
    #: then the inmate is abandoned.
    RETRY_LIMIT = 2
    RETRY_BACKOFF = 30.0

    def __init__(self, sim: Simulator,
                 on_action: Optional[Callable[[str, int], None]] = None
                 ) -> None:
        self.sim = sim
        self._inmates: Dict[int, Inmate] = {}
        # Actions executed, by action.
        self.executed: Dict[str, int] = {}
        # Rejected requests, by kind ("malformed", "unknown-target").
        self.rejected: Dict[str, int] = {}
        # Failed completions, by outcome ("retry", "abandoned").
        self.failed: Dict[str, int] = {}
        # Hook for the subfarm router to clear per-inmate state
        # (safety-filter history, bridge entries, open flows).
        self.on_action = on_action
        self._retry_state: Dict[Tuple[str, int], int] = {}
        # Telemetry reads the counts above, each kind from the first
        # time it happens.
        tel = sim.telemetry
        self._m_lifecycle = tel.counter(
            "inmates.lifecycle", "Life-cycle actions executed, by kind")
        self._m_errors = tel.counter(
            "inmates.lifecycle_errors", "Rejected life-cycle requests")

    # ------------------------------------------------------------------
    # Inventory
    # ------------------------------------------------------------------
    def register(self, inmate: Inmate) -> None:
        if inmate.vlan in self._inmates:
            raise ValueError(f"VLAN {inmate.vlan} already has an inmate")
        self._inmates[inmate.vlan] = inmate
        inmate.on_lifecycle_failure = self._lifecycle_failure

    def unregister(self, vlan: int) -> None:
        self._inmates.pop(vlan, None)

    def inmate(self, vlan: int) -> Optional[Inmate]:
        return self._inmates.get(vlan)

    # ------------------------------------------------------------------
    # Action execution ("the controller requires only the inmate's
    # VLAN ID in order to identify the target of a life-cycle action")
    # ------------------------------------------------------------------
    def execute(self, action: str, vlan: int,
                _from_retry: bool = False) -> bool:
        if action not in ACTIONS:
            return self._reject("malformed")
        inmate = self._inmates.get(vlan)
        if inmate is None:
            return self._reject("unknown-target")
        if not _from_retry:
            # A fresh external request resets the retry budget.
            self._retry_state.pop((action, vlan), None)
        tally(self.executed, action, self._m_lifecycle, action=action)
        getattr(inmate, action)()
        if self.on_action is not None:
            self.on_action(action, vlan)
        return True

    # ------------------------------------------------------------------
    # Bounded retry on failed life-cycle completions (fault plane)
    # ------------------------------------------------------------------
    def _lifecycle_failure(self, action: str, inmate: Inmate) -> None:
        key = (action, inmate.vlan)
        attempt = self._retry_state.get(key, 0)
        if attempt >= self.RETRY_LIMIT:
            tally(self.failed, "abandoned", self._m_errors, kind="abandoned")
            self._retry_state.pop(key, None)
            return
        self._retry_state[key] = attempt + 1
        delay = self.RETRY_BACKOFF * (2 ** attempt)
        tally(self.failed, "retry", self._m_errors, kind="retry")
        self.sim.schedule(
            delay, self.execute, action, inmate.vlan, True,
            label=f"lifecycle-retry-{action}-v{inmate.vlan}")

    # ------------------------------------------------------------------
    # Text protocol (management network)
    # ------------------------------------------------------------------
    def parse_and_execute(self, message: bytes) -> bool:
        """Handle one text message, e.g. ``b"revert 18"``."""
        try:
            text = message.decode("ascii").strip()
            action, vlan_text = text.split(" ", 1)
            vlan = int(vlan_text)
        except (UnicodeDecodeError, ValueError):
            return self._reject("malformed")
        return self.execute(action, vlan)

    def _reject(self, kind: str) -> bool:
        tally(self.rejected, kind, self._m_errors, kind=kind)
        return False

    def bind(self, host: Host, port: int = CONTROLLER_PORT) -> None:
        """Listen for life-cycle messages on a management-network host."""
        def handler(_host: Host, _packet: IPv4Packet,
                    datagram: UDPDatagram) -> None:
            self.parse_and_execute(datagram.payload)

        host.udp.bind(port, handler)


class LifecycleMessenger:
    """Containment-server side of the life-cycle text protocol.

    Sends actions over the containment server's *additional* interface
    on the management network — out-of-band of all inmate traffic.
    """

    def __init__(self, mgmt_host: Host, controller_ip: IPv4Address,
                 controller_port: int = CONTROLLER_PORT) -> None:
        self.mgmt_host = mgmt_host
        self.controller_ip = IPv4Address(controller_ip)
        self.controller_port = controller_port
        self.messages_sent = 0

    def __call__(self, action: str, vlan: int) -> None:
        message = f"{action} {vlan}".encode("ascii")
        self.messages_sent += 1
        self.mgmt_host.udp.sendto(message, self.controller_ip,
                                  self.controller_port)
