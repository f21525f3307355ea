"""The discrete-event simulation engine.

A :class:`Simulator` owns a virtual clock and a priority queue of
heap entries laid out ``[time, seq, callback, args, label, sim,
cancelled]``.  Components schedule callbacks at absolute or relative
virtual times; :meth:`Simulator.run` drains the queue in timestamp
order.  Ties are broken by a monotonically increasing sequence number
so that two events scheduled for the same instant fire in the order
they were scheduled — this keeps runs deterministic.

Two kinds of entry share the heap: the :class:`Event` handles
:meth:`Simulator.schedule` and :meth:`Simulator.schedule_at` return,
and the plain lists of the same shape that ``Port.send``
(``repro.net.link``) pushes for a default link delivery — drawn from
the same counter at the same moment, with ``sim`` already ``None``,
never cancelled.  Everything that walks the queue reads an entry by
index.

The engine knows nothing about networks or malware; it is the substrate
every other subsystem builds on.
"""

from __future__ import annotations

import itertools
import random
from heapq import heapify, heappop, heappush
from math import inf
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, List, Optional

from repro.obs.journal import NULL_JOURNAL
from repro.obs.telemetry import NULL_TELEMETRY


class Event(list):
    """A scheduled callback, and the heap entry itself:
    ``[time, seq, callback, args, label, sim, cancelled]``.

    The heap orders entries with ``list``'s own C comparison, which
    never looks past the unique ``seq``; defining a rich comparison
    here would re-enter Python on every sift step (docs/PERFORMANCE.md,
    "The per-hop kernel").  ``sim`` is the owning simulator while queued, so a
    cancel can be accounted for incrementally; it is cleared at pop
    time (a cancel after firing is a no-op for accounting).  Dead
    entries are discarded lazily and compacted when they dominate.
    """

    __slots__ = ()
    __hash__ = object.__hash__  # a handle, not a value

    time = property(itemgetter(0))
    seq = property(itemgetter(1))
    callback = property(itemgetter(2))
    args = property(itemgetter(3))
    label = property(itemgetter(4))
    cancelled = property(itemgetter(6))

    def cancel(self) -> None:
        """Mark this event dead; it will be skipped when popped."""
        if self[6]:
            return
        self[6] = True
        sim = self[5]
        if sim is not None:
            sim._note_cancel()

    @property
    def effective_label(self) -> str:
        """The scheduling label, falling back to the callback's name so
        traces and per-label histograms never show an anonymous event."""
        return self[4] or getattr(
            self[2], "__qualname__",
            getattr(self[2], "__name__", "callback"),
        )

    def __repr__(self) -> str:
        state = "cancelled" if self[6] else "pending"
        return (f"<Event t={self[0]:.6f} seq={self[1]} "
                f"{self.effective_label} ({state})>")


class Simulator:
    """Virtual clock plus event queue.

    Parameters
    ----------
    seed:
        Master seed for the experiment.  Component RNGs are derived from
        it via :meth:`rng`, so a given seed replays identically.
    """

    #: Sample the queue depth once per this many events rather than
    #: per event (the stride is virtual-event-count based, so sampling
    #: stays deterministic under a fixed seed).
    QUEUE_DEPTH_STRIDE = 1024

    #: Compact the heap once dead entries outnumber live ones and the
    #: queue is at least this large (small queues aren't worth it).
    COMPACT_MIN_QUEUE = 64

    def __init__(self, seed: int = 0) -> None:
        # Event handles and Port.send's plain lists, one shape, read by
        # index.
        self._queue: List[list] = []
        self._seq = itertools.count()
        self._now = 0.0
        self.seed = seed
        self._rngs: Dict[str, random.Random] = {}
        # What left the queue: callbacks that ran, dead entries
        # discarded, and events popped but not counted as processed —
        # one per run() while its callback runs, for good if it raised.
        self.events_processed = 0
        self.events_discarded = 0
        self._in_flight = 0
        # Cancelled-but-still-queued entries, maintained incrementally
        # so ``pending`` is O(1) and compaction can trigger cheaply.
        self._dead = 0

        # Telemetry (disabled by default) reads those counts and the
        # depth run() samples while a live domain is attached.  The
        # decision journal (repro.obs.journal) is independent of it:
        # components capture sim.journal at construction, so it must be
        # attached before they are built.
        self.telemetry = NULL_TELEMETRY
        self.journal = NULL_JOURNAL
        self._sample_depth = False
        self.queue_depth_sample = 0.0

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def attach_telemetry(self, telemetry) -> None:
        """Wire a live :class:`~repro.obs.telemetry.Telemetry` domain.
        The ``sim.events.*`` counters count from this moment."""
        self.telemetry = telemetry
        fired, discarded = self.events_processed, self.events_discarded
        # Every entry ever pushed is still queued or left in one of
        # three ways, so pushes need no count of their own.
        scheduled = self._left_or_queued()
        telemetry.counter(
            "sim.events.scheduled", "Events pushed onto the queue"
        ).register(lambda: self._left_or_queued() - scheduled)
        telemetry.counter(
            "sim.events.fired", "Callbacks executed"
        ).register(lambda: self.events_processed - fired)
        telemetry.counter(
            "sim.events.cancelled", "Dead events discarded at pop"
        ).register(lambda: self.events_discarded - discarded)
        telemetry.gauge(
            "sim.queue.depth", "Events currently queued (incl. dead)"
        ).register(lambda: self.queue_depth_sample)
        self._sample_depth = telemetry.enabled

    def _left_or_queued(self) -> int:
        return (self.events_processed + self.events_discarded
                + self._in_flight + len(self._queue))

    def attach_journal(self, journal) -> None:
        """Wire a live :class:`~repro.obs.journal.Journal`.  Must run
        before journaling components are constructed — they capture
        ``sim.journal`` at init time."""
        self.journal = journal

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    # A C-level getter: reading the clock costs no Python frame.
    now = property(attrgetter("_now"),
                   doc="Current virtual time in seconds.")

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def rng(self, name: str) -> random.Random:
        """Return the named RNG stream, creating it on first use.

        Each stream is seeded from ``(master seed, name)`` so adding a
        new consumer does not perturb existing streams.
        """
        if name not in self._rngs:
            self._rngs[name] = random.Random(f"{self.seed}/{name}")
        return self._rngs[name]

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN, which would unorder the heap
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        event = Event((self._now + delay, next(self._seq), callback, args,
                       label, self, False))
        heappush(self._queue, event)
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if not time >= self._now:  # also rejects NaN
            raise ValueError(
                f"cannot schedule at t={time} < now={self._now}"
            )
        event = Event((time, next(self._seq), callback, args, label, self,
                       False))
        heappush(self._queue, event)
        return event

    # ------------------------------------------------------------------
    # Cancellation accounting and heap compaction
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` while the event is queued."""
        self._dead += 1
        if (self._dead * 2 > len(self._queue)
                and len(self._queue) >= self.COMPACT_MIN_QUEUE):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Pop order is the total order ``(time, seq)`` (seq is unique),
        so rebuilding the heap cannot perturb determinism.  The list
        object is mutated in place because :meth:`run` holds a local
        reference to it.
        """
        removed = self._dead
        if removed == 0:
            return
        self._queue[:] = [e for e in self._queue if not e[6]]
        heapify(self._queue)
        self._dead = 0
        self.events_discarded += removed

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event queue.

        Runs until the queue empties, virtual time would pass ``until``,
        or ``max_events`` callbacks have fired.  Returns the virtual time
        at which execution stopped.  When stopped by ``until``, the clock
        is advanced to exactly ``until`` (events beyond it stay queued).
        An ``until`` before the current time (or NaN) is refused before
        anything is popped: the clock never runs backwards.
        """
        if until is not None and not until >= self._now:  # also NaN
            raise ValueError(
                f"cannot run until t={until} < now={self._now}")
        processed = 0
        # Hot-loop kernel: bind everything the per-event path touches to
        # locals, index the entry directly, and fold the two optional
        # bounds into plain comparisons.
        queue = self._queue
        horizon = inf if until is None else until
        budget = inf if max_events is None else max_events
        sample = self._sample_depth
        stride = self.QUEUE_DEPTH_STRIDE
        self._in_flight += 1
        try:
            while queue:
                event = queue[0]
                if event[6]:
                    heappop(queue)
                    self._dead -= 1
                    self.events_discarded += 1
                    continue
                time = event[0]
                if time > horizon:
                    self._now = until
                    break
                if processed >= budget:
                    break
                heappop(queue)
                event[5] = None
                self._now = time
                event[2](*event[3])
                processed += 1
                self.events_processed += 1
                # Sample the depth on a virtual-event stride: the
                # trigger is event-count based, so with a fixed seed
                # the sampled values replay identically.
                if sample and not self.events_processed % stride:
                    self.queue_depth_sample = len(queue)
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            if sample:
                self.queue_depth_sample = len(queue)
        # Not reached when a callback raised: its event stays in flight.
        self._in_flight -= 1
        return self._now

    def drain_coincident(self, callback: Callable[..., None]) -> List[tuple]:
        """Pop every consecutive head event due *now* for ``callback``
        and return their argument tuples, in scheduling order.

        This is the batch-coalescing primitive: a component whose
        callback is firing can claim the other deliveries scheduled for
        the same virtual instant and process them together.  Only a
        consecutive head run is taken — the first event with a
        different time or callback stops the scan — so the exact
        scalar execution order is preserved for everything left queued.
        Drained events are accounted as fired (they did run, just
        inside the claimant's batch), keeping event counters identical
        to unbatched execution.
        """
        queue = self._queue
        drained: List[tuple] = []
        now = self._now
        while queue:
            head = queue[0]
            if head[6]:
                heappop(queue)
                self._dead -= 1
                self.events_discarded += 1
                continue
            if head[0] != now or head[2] != callback:
                break
            heappop(queue)
            head[5] = None
            drained.append(head[3])
            self.events_processed += 1
        return drained

    def step(self) -> bool:
        """Run a single event.  Returns False if the queue is empty."""
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed != before

    @property
    def pending(self) -> int:
        """Number of live events still queued (O(1))."""
        return len(self._queue) - self._dead

    def __repr__(self) -> str:
        return f"<Simulator t={self._now:.3f} pending={self.pending}>"
