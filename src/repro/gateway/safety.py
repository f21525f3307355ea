"""The safety filter (§5.1).

A last line of defense that is deliberately independent of containment
policy: "a safety filter ensures that the rate of connections across
destinations and to a given destination never exceeds configurable
thresholds."  Even a buggy FORWARD-happy policy cannot turn an inmate
into a usable flooder.

Implementation: sliding-window counters per inmate (across all
destinations) and per (inmate, destination) pair.  Flows beyond a
threshold are refused at creation and counted as alerts, by the budget
that tripped (``trips``); the refused flow's REFUSED line in the
gateway's flow log is its record.  A pair's history is dropped once its
newest flow has left the window, so a scanning inmate costs memory for
one window of destinations, not for every destination it ever tried.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, Dict, Tuple

from repro.net.addresses import IPv4Address
from repro.obs.telemetry import NULL_TELEMETRY


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
        # Keyed (vlan, destination as int).
        self._per_pair: Dict[Tuple[int, int], Deque[float]] = {}
        # (admit time, pair key) of every admitted flow, oldest first:
        # what tells admit() which pair histories may have gone stale
        # without walking the table.  ``now`` must not run backwards.
        self._pair_clock: Deque[Tuple[float, Tuple[int, int]]] = deque()
        self.flows_admitted = 0
        # Flows refused, by the budget that tripped.
        self.trips = {"per-inmate": 0, "per-destination": 0}
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.telemetry.counter(
            "gw.safety.admitted", "Flows the safety filter admitted"
        ).register(lambda: self.flows_admitted, subfarm=subfarm)
        trips = self.telemetry.counter(
            "gw.safety.trips", "Flows the safety filter refused, by reason")
        for reason in self.trips:
            trips.register(partial(self.trips.__getitem__, reason),
                           subfarm=subfarm, reason=reason)

    @property
    def flows_refused(self) -> int:
        return sum(self.trips.values())

    def admit(self, now: float, vlan: int, destination: IPv4Address) -> bool:
        """Account a new flow; False means the flow must be refused."""
        horizon = now - self.window
        per_pair = self._per_pair
        # Each admitted flow is looked at once more, when it leaves the
        # window: amortised O(1) per call.
        clock = self._pair_clock
        while clock and clock[0][0] <= horizon:
            stale = clock.popleft()[1]
            history = per_pair.get(stale)
            if history is not None and (not history
                                        or history[-1] <= horizon):
                del per_pair[stale]

        inmate_history = self._per_inmate.get(vlan)
        if inmate_history is None:
            inmate_history = self._per_inmate[vlan] = deque()
        while inmate_history and inmate_history[0] <= horizon:
            inmate_history.popleft()
        pair_key = (vlan, destination.value)
        pair_history = per_pair.get(pair_key)
        if pair_history is None:
            pair_flows = 0
        else:
            while pair_history and pair_history[0] <= horizon:
                pair_history.popleft()
            pair_flows = len(pair_history)

        if len(inmate_history) >= self.max_flows_per_window:
            self.trips["per-inmate"] += 1
            return False
        if pair_flows >= self.max_flows_per_destination:
            self.trips["per-destination"] += 1
            return False

        inmate_history.append(now)
        if pair_history is None:
            pair_history = per_pair[pair_key] = deque()
        pair_history.append(now)
        clock.append((now, pair_key))
        self.flows_admitted += 1
        return True

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
        # Their _pair_clock rows stay behind and expire harmlessly.
        for key in [k for k in self._per_pair if k[0] == vlan]:
            del self._per_pair[key]
