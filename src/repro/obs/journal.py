"""The flight recorder: a bounded, append-only decision journal.

Where telemetry (metrics) answers "how many", the journal answers
"why": every containment-relevant decision — a verdict issued, a
fast-path handler installed or evicted, a failover, a degraded-mode
transition, a malice-barrier quarantine, a lifecycle action — lands
here as one :class:`JournalEvent` stamped with the **virtual clock**
and a **causal parent reference**, so a flow's full decision chain is
reconstructable as a tree (:mod:`repro.obs.provenance`).

Determinism contract
--------------------
* Events are appended in simulation order and numbered by a journal-
  wide sequence, so a fixed seed replays to a byte-identical event
  stream (:meth:`Journal.digest`).
* Disabled is the default: :data:`NULL_JOURNAL` hangs off every
  :class:`~repro.sim.engine.Simulator` and turns each ``record()``
  into a no-op, so instrumented call sites need no conditionals and
  disabled runs stay byte-identical to a build without the journal.
* The store is bounded: at ``capacity`` the journal **drops the
  oldest** event for each new one (it never samples and never
  refuses) and ``evicted`` counts the drops — truncation is never
  silent.  Eviction is O(1), so a full journal costs what a filling
  one does.

Causal parenting
----------------
Decisions cross component boundaries through *serialized* shim bytes,
so the containment server and the router cannot thread object
references to link their events.  Instead the journal auto-parents:
``record(kind, flow=..., vlan=...)`` defaults ``parent`` to the last
event recorded for the same flow id (falling back to the same VLAN),
which is exactly the causal predecessor because all recording happens
inline on the virtual clock.  Components that only know a flow by its
five-tuple register an alias (:meth:`Journal.bind_flow`) so both ends
of the shim protocol resolve to one flow id.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict, deque
from itertools import islice
from operator import itemgetter
from typing import Callable, Deque, Dict, Iterable, List, Optional

Clock = Callable[[], float]

JOURNAL_SCHEMA = "gq.journal/1"

#: Default bounded-ring capacity (events kept before FIFO eviction).
DEFAULT_CAPACITY = 65536

#: Samples kept per time-series ring before FIFO eviction.
DEFAULT_RING_CAPACITY = 512

#: Events rendered and encoded per step of :func:`journal_digest`.
DIGEST_CHUNK = 1024

#: Pass as ``parent=`` to force a chain root: the event records with
#: no parent even when flow/VLAN history exists (e.g. ``flow.created``
#: starts a fresh chain rather than chaining to the previous flow on
#: the same VLAN).
ROOT = object()


def _event_dict(row: tuple, fields: dict) -> dict:
    return {
        "seq": row[0],
        "t": round(row[1], 9),
        "kind": row[2],
        "flow": row[3],
        "vlan": row[4],
        "parent": row[5],
        "fields": fields,
    }


class JournalEvent(tuple):
    """One recorded decision: a named view ``(seq, time, kind, flow,
    vlan, parent, fields)`` of a stored row and its fields."""

    __slots__ = ()

    seq = property(itemgetter(0))
    time = property(itemgetter(1))
    kind = property(itemgetter(2))
    flow = property(itemgetter(3))
    vlan = property(itemgetter(4))
    parent = property(itemgetter(5))
    fields = property(itemgetter(6))

    def to_dict(self) -> dict:
        return _event_dict(self, self[6])


class SampleRing:
    """Fixed-capacity ring of ``(virtual time, value)`` samples for one
    gauge/counter series."""

    __slots__ = ("name", "capacity", "samples", "dropped")

    def __init__(self, name: str, capacity: int = DEFAULT_RING_CAPACITY
                 ) -> None:
        self.name = name
        self.capacity = capacity
        self.samples: Deque[List[float]] = deque(maxlen=capacity)
        self.dropped = 0

    def sample(self, time: float, value: float) -> None:
        if len(self.samples) == self.capacity:
            self.dropped += 1
        self.samples.append([round(time, 9), value])

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "dropped": self.dropped,
            "samples": [list(pair) for pair in self.samples],
        }


class Journal:
    """The live flight recorder (see module docstring)."""

    enabled = True

    def __init__(self, clock: Clock, capacity: int = DEFAULT_CAPACITY,
                 ring_capacity: int = DEFAULT_RING_CAPACITY) -> None:
        self.clock = clock
        self.capacity = max(1, int(capacity))
        self.ring_capacity = ring_capacity
        # Two rings in step, ``(seq, time, kind, flow, vlan, parent)``
        # and the event's fields: a tuple of atoms and a dict of atoms
        # are not tracked by the cyclic collector, a tuple *holding*
        # the dict would be.  The next seq is ``recorded``.
        self._events: Deque[tuple] = deque(maxlen=self.capacity)
        self._fields: Deque[dict] = deque(maxlen=self.capacity)
        self.recorded = 0
        self._rings: Dict[str, SampleRing] = {}
        # Causal bookkeeping: last event seq per flow id / per VLAN,
        # plus flow aliases → flow ids.  All bounded FIFO (by first
        # insertion) at the journal's own capacity so week-scale
        # runs cannot grow them without bound; OrderedDict because its
        # popitem(last=False) is O(1) where deleting a plain dict's
        # first key rescans the dead prefix.
        self._last_for_flow: "OrderedDict[str, int]" = OrderedDict()
        self._last_for_vlan: "OrderedDict[int, int]" = OrderedDict()
        self._aliases: "OrderedDict[object, str]" = OrderedDict()

    #: Events dropped from the full ring, oldest first.
    evicted = property(lambda self: self.recorded - len(self._events))

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, kind: str, flow: Optional[str] = None,
               vlan: Optional[int] = None, parent: Optional[int] = None,
               **fields) -> JournalEvent:
        """Append one event; auto-parent from the flow/VLAN history."""
        if parent is ROOT:
            parent = None
        elif parent is None:
            if flow is not None:
                parent = self._last_for_flow.get(flow)
            if parent is None and vlan is not None:
                parent = self._last_for_vlan.get(vlan)
        seq = self.recorded
        self.recorded = seq + 1
        row = (seq, self.clock(), kind, flow, vlan, parent)
        self._events.append(row)
        self._fields.append(fields)
        # Neither map can be full before the ring is: plain stores.
        remember = (OrderedDict.__setitem__ if seq < self.capacity
                    else self._remember)
        if flow is not None:
            remember(self._last_for_flow, flow, seq)
        if vlan is not None:
            remember(self._last_for_vlan, vlan, seq)
        return JournalEvent((*row, fields))

    def _remember(self, table: OrderedDict, key, value) -> None:
        if len(table) >= self.capacity and key not in table:
            table.popitem(last=False)
        table[key] = value

    # ------------------------------------------------------------------
    # Flow aliases — ``(vlan, FiveTuple.as_key())``, ints either end of
    # the shim protocol can compute without rendering — to flow ids.
    # ------------------------------------------------------------------
    def bind_flow(self, alias: object, flow_id: str) -> None:
        self._remember(self._aliases, alias, flow_id)

    def flow_for(self, alias: object) -> Optional[str]:
        return self._aliases.get(alias)

    # ------------------------------------------------------------------
    # Time-series rings
    # ------------------------------------------------------------------
    def ring(self, name: str) -> SampleRing:
        ring = self._rings.get(name)
        if ring is None:
            ring = self._rings[name] = SampleRing(name, self.ring_capacity)
        return ring

    def sample(self, name: str, value: float) -> None:
        self.ring(name).sample(self.clock(), float(value))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def events(self) -> List[JournalEvent]:
        return [JournalEvent((*row, fields))
                for row, fields in zip(self._events, self._fields)]

    def snapshot(self) -> dict:
        """JSON-safe view of the whole journal (schema
        ``gq.journal/1``) — the unit the merge and the exporters
        consume."""
        return self._snapshot(list(map(_event_dict, self._events,
                                       self._fields)))

    def digest(self) -> str:
        """``journal_digest(self.snapshot())`` without the snapshot:
        each event is rendered as its chunk is hashed."""
        return journal_digest(self._snapshot(map(_event_dict, self._events,
                                                 self._fields)))

    def _snapshot(self, events: Iterable[dict]) -> dict:
        return {
            "schema": JOURNAL_SCHEMA,
            "enabled": True,
            "time": round(self.clock(), 9),
            "recorded": self.recorded,
            "evicted": self.evicted,
            "events": events,
            "rings": {name: self._rings[name].to_dict()
                      for name in sorted(self._rings)},
        }

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return (f"<Journal events={len(self._events)} "
                f"recorded={self.recorded} evicted={self.evicted}>")


class NullJournal:
    """Do-nothing journal; the default on every simulator."""

    __slots__ = ()
    enabled = False
    recorded = 0
    evicted = 0

    def record(self, kind: str, flow: Optional[str] = None,
               vlan: Optional[int] = None, parent: Optional[int] = None,
               **fields) -> None:
        return None

    def bind_flow(self, alias: object, flow_id: str) -> None:
        pass

    def flow_for(self, alias: object) -> Optional[str]:
        return None

    def sample(self, name: str, value: float) -> None:
        pass

    def events(self) -> List[JournalEvent]:
        return []

    def snapshot(self) -> dict:
        return {
            "schema": JOURNAL_SCHEMA,
            "enabled": False,
            "time": 0.0,
            "recorded": 0,
            "evicted": 0,
            "events": [],
            "rings": {},
        }

    def digest(self) -> str:
        return journal_digest(self.snapshot())

    def __len__(self) -> int:
        return 0


NULL_JOURNAL = NullJournal()


def journal_digest(snapshot: dict) -> str:
    """sha256 over the canonical JSON of a journal snapshot — the
    event-stream identity the parity checks compare.

    The canonical text is ``json.dumps(snapshot, sort_keys=True)``,
    fed to the hash a piece at a time: the top-level keys one by one,
    and the ``events`` value — a list, or any iterable of event dicts —
    :data:`DIGEST_CHUNK` events per encode, so what digesting holds at
    once does not grow with the journal.
    """
    digest = hashlib.sha256(b"{")
    for index, key in enumerate(sorted(snapshot)):
        digest.update(f"{', ' if index else ''}{json.dumps(key)}: ".encode())
        if key != "events":
            digest.update(json.dumps(snapshot[key], sort_keys=True).encode())
            continue
        digest.update(b"[")
        events, separator = iter(snapshot[key]), b""
        while chunk := list(islice(events, DIGEST_CHUNK)):
            # "[e1, e2, ...]" less its brackets is those items and the
            # separators between them, exactly as in the whole list.
            blob = json.dumps(chunk, sort_keys=True).encode()
            digest.update(separator)
            digest.update(memoryview(blob)[1:-1])
            separator = b", "
        digest.update(b"]")
    digest.update(b"}")
    return digest.hexdigest()


__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_RING_CAPACITY",
    "DIGEST_CHUNK",
    "JOURNAL_SCHEMA",
    "Journal",
    "JournalEvent",
    "NULL_JOURNAL",
    "NullJournal",
    "ROOT",
    "SampleRing",
    "journal_digest",
]
