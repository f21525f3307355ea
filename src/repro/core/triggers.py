"""Activity triggers (§5.4, §6.2).

"As the containment server witnesses all network-level activity of an
inmate, it can react to the presence — and absence — of such network
events using activity triggers.  These triggers can terminate the
inmate, reboot it, or revert it to a clean state for subsequent
reinfection."

The configuration syntax comes from Figure 6::

    Trigger = *:25/tcp / 30min < 1 -> revert

meaning: whenever the number of flows to TCP port 25 (any destination)
seen in a 30-minute window drops below one, revert the inmate.
Over-threshold triggers (``> N``) fire as soon as the window count
crosses the threshold; under-threshold triggers (``< N``) are
evaluated periodically once the inmate has shown any activity.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.net.addresses import IPv4Address
from repro.net.flow import FiveTuple
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.obs.telemetry import tally
from repro.sim.engine import Simulator
from repro.sim.process import Process

LifecycleAction = Callable[[str, int], None]

_TRIGGER_RE = re.compile(
    r"^\s*(?P<dst>[\w.*]+):(?P<port>\d+|\*)/(?P<proto>tcp|udp)\s*/\s*"
    r"(?P<window>\d+(?:\.\d+)?)\s*(?P<unit>s|sec|min|h|hr)\s*"
    r"(?P<op><=|>=|<|>|==)\s*(?P<threshold>\d+)\s*->\s*"
    r"(?P<action>start|stop|reboot|revert|terminate)\s*$"
)

_UNIT_SECONDS = {"s": 1.0, "sec": 1.0, "min": 60.0, "h": 3600.0, "hr": 3600.0}

_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
}


class TriggerSpec:
    """A parsed trigger rule."""

    __slots__ = ("dst", "port", "proto", "window", "op", "threshold",
                 "action", "text")

    def __init__(self, dst: Optional[IPv4Address], port: Optional[int],
                 proto: int, window: float, op: str, threshold: int,
                 action: str, text: str = "") -> None:
        self.dst = dst          # None means any destination ('*')
        self.port = port        # None means any port
        self.proto = proto
        self.window = window
        self.op = op
        self.threshold = threshold
        self.action = action
        self.text = text

    @classmethod
    def parse(cls, text: str) -> "TriggerSpec":
        """Parse the Figure 6 syntax, e.g. ``*:25/tcp / 30min < 1 -> revert``."""
        match = _TRIGGER_RE.match(text)
        if match is None:
            raise ValueError(f"malformed trigger spec: {text!r}")
        dst_text = match.group("dst")
        dst = None if dst_text == "*" else IPv4Address(dst_text)
        port_text = match.group("port")
        port = None if port_text == "*" else int(port_text)
        proto = PROTO_TCP if match.group("proto") == "tcp" else PROTO_UDP
        window = float(match.group("window")) * _UNIT_SECONDS[match.group("unit")]
        return cls(dst, port, proto, window, match.group("op"),
                   int(match.group("threshold")), match.group("action"), text)

    @property
    def under_threshold(self) -> bool:
        """Does this trigger watch for *absence* of activity?"""
        return self.op in ("<", "<=", "==")

    def matches(self, flow: FiveTuple) -> bool:
        if flow.proto != self.proto:
            return False
        if self.port is not None and flow.resp_port != self.port:
            return False
        if self.dst is not None and flow.resp_ip != self.dst:
            return False
        return True

    def evaluate(self, count: int) -> bool:
        return _OPS[self.op](count, self.threshold)

    def __repr__(self) -> str:
        return f"<TriggerSpec {self.text or 'custom'}>"


class _TriggerState:
    """Per (spec, vlan) sliding-window state."""

    __slots__ = ("events", "armed_at", "last_fired", "ever_active")

    def __init__(self, now: float) -> None:
        self.events: Deque[float] = deque()
        self.armed_at = now
        self.last_fired: Optional[float] = None
        self.ever_active = False


class TriggerEngine:
    """Evaluates trigger rules against the flow-event stream."""

    def __init__(self, sim: Simulator, lifecycle: LifecycleAction,
                 check_interval: float = 60.0) -> None:
        self.sim = sim
        self.lifecycle = lifecycle
        self.check_interval = check_interval
        self._rules: List[Tuple[TriggerSpec, Set[int]]] = []
        self._state: Dict[Tuple[int, int], _TriggerState] = {}
        # Firings, by life-cycle action: a count, not a list (with the
        # journal on, each firing is also a ``trigger.fired`` event).
        self.fired: Dict[str, int] = {}
        self._sweeper = Process(sim, check_interval, self._sweep,
                                label="trigger-sweep")
        self._sweeper_started = False
        # While containment is degraded (no responsive containment
        # server) triggers are suspended: absence-of-activity rules
        # would otherwise misread the outage as inmate dormancy and
        # revert healthy inmates.  ``suspensions`` logs the windows.
        self._suspended = False
        self.suspensions: List[List[Optional[float]]] = []
        self._m_fired = sim.telemetry.counter(
            "triggers.fired", "Trigger firings, by life-cycle action")

    def add(self, spec: TriggerSpec, vlans: Set[int]) -> None:
        """Install a rule for a set of VLAN IDs."""
        self._rules.append((spec, set(vlans)))
        for vlan in vlans:
            key = (len(self._rules) - 1, vlan)
            self._state[key] = _TriggerState(self.sim.now)
        if not self._sweeper_started:
            self._sweeper_started = True
            self._sweeper.start()

    def add_text(self, text: str, vlans: Set[int]) -> TriggerSpec:
        spec = TriggerSpec.parse(text)
        self.add(spec, vlans)
        return spec

    # ------------------------------------------------------------------
    def suspend(self) -> None:
        """Stop firing (degraded containment); window state keeps filling."""
        if self._suspended:
            return
        self._suspended = True
        self.suspensions.append([self.sim.now, None])
        journal = self.sim.journal
        if journal.enabled:
            journal.record("trigger.suspended", rules=len(self._rules))

    def resume(self) -> None:
        """Re-arm after a suspension; windows restart from now so the
        outage gap is not misread as inmate inactivity."""
        if not self._suspended:
            return
        self._suspended = False
        self.suspensions[-1][1] = self.sim.now
        journal = self.sim.journal
        if journal.enabled:
            journal.record("trigger.resumed", rules=len(self._rules),
                           suspended_for=self.sim.now - self.suspensions[-1][0])
        for state in self._state.values():
            state.armed_at = self.sim.now
            if state.last_fired is not None:
                state.last_fired = self.sim.now

    # ------------------------------------------------------------------
    def flow_event(self, vlan: int, timestamp: float,
                   flow: FiveTuple) -> None:
        """Called by the containment server for every verdict issued."""
        for rule_index, (spec, vlans) in enumerate(self._rules):
            if vlan not in vlans:
                continue
            state = self._state[(rule_index, vlan)]
            state.ever_active = True
            if spec.matches(flow):
                state.events.append(timestamp)
                self._prune(state, spec)
                # Over-threshold triggers react immediately.
                if spec.op in (">", ">=") and not self._suspended \
                        and spec.evaluate(len(state.events)):
                    self._fire(spec, vlan, state)

    def _prune(self, state: _TriggerState, spec: TriggerSpec) -> None:
        horizon = self.sim.now - spec.window
        while state.events and state.events[0] <= horizon:
            state.events.popleft()

    def _sweep(self) -> None:
        """Periodic evaluation for absence-of-activity triggers."""
        if self._suspended:
            return
        for rule_index, (spec, vlans) in enumerate(self._rules):
            if spec.op not in ("<", "<=", "=="):
                continue
            for vlan in vlans:
                state = self._state[(rule_index, vlan)]
                self._prune(state, spec)
                if not state.ever_active:
                    continue  # inmate has not come alive yet
                reference = state.last_fired if state.last_fired is not None \
                    else state.armed_at
                if self.sim.now - reference < spec.window:
                    continue  # give the window a chance to fill
                if spec.evaluate(len(state.events)):
                    self._fire(spec, vlan, state)

    def _fire(self, spec: TriggerSpec, vlan: int,
              state: _TriggerState) -> None:
        journal = self.sim.journal
        if journal.enabled:
            # Window count must be captured before the clear() below.
            journal.record("trigger.fired", vlan=vlan,
                           rule=spec.text or repr(spec),
                           action=spec.action,
                           window_events=len(state.events))
        state.last_fired = self.sim.now
        state.events.clear()
        state.ever_active = False
        tally(self.fired, spec.action, self._m_fired, action=spec.action)
        self.lifecycle(spec.action, vlan)
