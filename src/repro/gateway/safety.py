"""The safety filter (§5.1).

A last line of defense that is deliberately independent of containment
policy: "a safety filter ensures that the rate of connections across
destinations and to a given destination never exceeds configurable
thresholds."  Even a buggy FORWARD-happy policy cannot turn an inmate
into a usable flooder.

Implementation: sliding-window counters per inmate (across all
destinations) and per (inmate, destination) pair.  Flows beyond a
threshold are refused at creation and counted as alerts.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.net.addresses import IPv4Address
from repro.obs.telemetry import NULL_TELEMETRY


class SafetyAlert:
    """One refused flow, kept for reporting."""

    __slots__ = ("timestamp", "vlan", "destination", "reason")

    def __init__(self, timestamp: float, vlan: int,
                 destination: IPv4Address, reason: str) -> None:
        self.timestamp = timestamp
        self.vlan = vlan
        self.destination = destination
        self.reason = reason

    def __repr__(self) -> str:
        return (
            f"<SafetyAlert t={self.timestamp:.1f} vlan={self.vlan} "
            f"dst={self.destination} {self.reason}>"
        )


class SafetyFilter:
    """Sliding-window connection-rate limiter.

    Parameters
    ----------
    max_flows_per_window:
        Budget of new flows per inmate across all destinations.
    max_flows_per_destination:
        Budget of new flows per (inmate, destination) pair.
    window:
        Window length in seconds for both budgets.
    """

    def __init__(
        self,
        max_flows_per_window: int = 500,
        max_flows_per_destination: int = 100,
        window: float = 60.0,
        telemetry=None,
        subfarm: str = "",
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.max_flows_per_window = max_flows_per_window
        self.max_flows_per_destination = max_flows_per_destination
        self.window = window
        self._per_inmate: Dict[int, Deque[float]] = {}
        self._per_pair: Dict[Tuple[int, IPv4Address], Deque[float]] = {}
        self.alerts: List[SafetyAlert] = []
        self.flows_admitted = 0
        self.flows_refused = 0
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._m_admitted = self.telemetry.counter(
            "gw.safety.admitted", "Flows the safety filter admitted"
        ).bind(subfarm=subfarm)
        trips = self.telemetry.counter(
            "gw.safety.trips", "Flows the safety filter refused, by reason")
        self._m_trip_inmate = trips.bind(subfarm=subfarm, reason="per-inmate")
        self._m_trip_pair = trips.bind(subfarm=subfarm,
                                       reason="per-destination")

    def _prune(self, history: Deque[float], now: float) -> None:
        horizon = now - self.window
        while history and history[0] <= horizon:
            history.popleft()

    def admit(self, now: float, vlan: int, destination: IPv4Address) -> bool:
        """Account a new flow; False means the flow must be refused."""
        inmate_history = self._per_inmate.setdefault(vlan, deque())
        pair_key = (vlan, destination)
        pair_history = self._per_pair.setdefault(pair_key, deque())
        self._prune(inmate_history, now)
        self._prune(pair_history, now)

        if len(inmate_history) >= self.max_flows_per_window:
            self._m_trip_inmate.inc()
            self._refuse(now, vlan, destination, "per-inmate flow rate")
            return False
        if len(pair_history) >= self.max_flows_per_destination:
            self._m_trip_pair.inc()
            self._refuse(now, vlan, destination, "per-destination flow rate")
            return False

        inmate_history.append(now)
        pair_history.append(now)
        self.flows_admitted += 1
        self._m_admitted.inc()
        return True

    def _refuse(self, now: float, vlan: int, destination: IPv4Address,
                reason: str) -> None:
        self.flows_refused += 1
        self.alerts.append(SafetyAlert(now, vlan, destination, reason))

    def bounds(self) -> dict:
        """The filter's static rate envelope, for isolation
        certificates: whatever the policy plane grants, no inmate can
        exceed these new-flow budgets."""
        return {
            "max_flows_per_window": self.max_flows_per_window,
            "max_flows_per_destination": self.max_flows_per_destination,
            "window": self.window,
        }

    def reset_inmate(self, vlan: int) -> None:
        """Forget an inmate's history (it was reverted/terminated)."""
        self._per_inmate.pop(vlan, None)
        for key in [k for k in self._per_pair if k[0] == vlan]:
            del self._per_pair[key]
