"""Periodic-activity helper layered on the event engine.

:class:`Process` is a periodic activity with start/stop semantics
(think a spambot's sending loop or a DHCP server's lease reaper).  It
wraps raw :class:`~repro.sim.engine.Event` scheduling so callers never
juggle event handles themselves.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Event, Simulator


class Process:
    """A periodic activity.

    Fires ``callback()`` every ``interval`` seconds once started.  The
    interval may be a constant or a zero-argument callable returning the
    next gap (useful for jittered or exponential pacing).
    """

    def __init__(
        self,
        sim: Simulator,
        interval: Any,
        callback: Callable[[], None],
        label: str = "process",
        initial_delay: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.label = label
        self.initial_delay = initial_delay
        self._event: Optional[Event] = None
        self.running = False
        self.ticks = 0

    def _next_interval(self) -> float:
        if callable(self.interval):
            return float(self.interval())
        return float(self.interval)

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        delay = (
            self.initial_delay
            if self.initial_delay is not None
            else self._next_interval()
        )
        self._event = self.sim.schedule(delay, self._tick, label=self.label)

    def stop(self) -> None:
        self.running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if not self.running:
            return
        self.ticks += 1
        self.callback()
        if self.running:
            self._event = self.sim.schedule(
                self._next_interval(), self._tick, label=self.label
            )
