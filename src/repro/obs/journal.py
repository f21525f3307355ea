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

Storage
-------
Each event is stored as one flat tuple, ``(seq, time, kind, flow,
vlan, parent, names, *values)``: ``names`` is the tuple of the
event's field names, interned once per distinct schema (a recording
site's keyword names), and the values follow in the order the call
passed them.  The fields dict is rebuilt, in that order, only on
export (:meth:`Journal.events`, :meth:`Journal.snapshot`,
:meth:`Journal.digest`), so an event costs one tuple where it cost a
row and a dict.  The recording sites pass atoms — numbers, strings,
None — so the row is a tuple of atoms: the cyclic collector stops
tracking such a tuple at its first pass over it and never walks the
ring again (a tuple holding a dict, as a row with its fields would,
stays tracked for life).  docs/PERFORMANCE.md, "Journal memory", has
the bytes.

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
from typing import Callable, Deque, Iterable, List, Optional

Clock = Callable[[], float]

JOURNAL_SCHEMA = "gq.journal/1"

#: Default bounded-ring capacity (events kept before FIFO eviction),
#: read when a journal is built.
DEFAULT_CAPACITY = 65536

#: Events rendered and encoded per step of :func:`journal_digest`:
#: what digesting holds at once is one chunk's dicts and text.
DIGEST_CHUNK = 64

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


def _row_dict(row: tuple) -> dict:
    """A stored row as its event dict, the fields rebuilt in the order
    they were recorded (one frame per event: the digest's loop)."""
    return {
        "seq": row[0],
        "t": round(row[1], 9),
        "kind": row[2],
        "flow": row[3],
        "vlan": row[4],
        "parent": row[5],
        "fields": dict(zip(row[6], row[7:])),
    }


class _Schemas(dict):
    """Field-name tuples, each interned at its first lookup."""

    __slots__ = ()

    def __missing__(self, names: tuple) -> tuple:
        self[names] = names
        return names


class JournalEvent(tuple):
    """One recorded decision: a named view ``(seq, time, kind, flow,
    vlan, parent, fields)`` of a stored row, its fields rebuilt."""

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


class Journal:
    """The live flight recorder (see module docstring)."""

    enabled = True

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        # Read when the journal is built, so patching the constant
        # sets the next journal's bound.
        self.capacity = DEFAULT_CAPACITY
        # One ring of rows ``(seq, time, kind, flow, vlan, parent,
        # names, *values)``, the names interned in ``_schemas`` (module
        # docstring).  A row holds atoms and the names tuple of strings,
        # so the cyclic collector untracks it at its first pass; a row
        # holding the fields dict would stay tracked for life.  The
        # next seq is ``recorded``.
        self._events: Deque[tuple] = deque(maxlen=self.capacity)
        self._schemas = _Schemas()
        self.recorded = 0
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
               **fields) -> None:
        """Append one event; auto-parent from the flow/VLAN history.
        Read it back with :meth:`events`."""
        if parent is ROOT:
            parent = None
        elif parent is None:
            if flow is not None:
                parent = self._last_for_flow.get(flow)
            if parent is None and vlan is not None:
                parent = self._last_for_vlan.get(vlan)
        seq = self.recorded
        self.recorded = seq + 1
        self._events.append((seq, self.clock(), kind, flow, vlan, parent,
                             self._schemas[tuple(fields)], *fields.values()))
        if seq < self.capacity:
            # Neither map can be full before the ring is: plain stores.
            if flow is not None:
                self._last_for_flow[flow] = seq
            if vlan is not None:
                self._last_for_vlan[vlan] = seq
        else:
            if flow is not None:
                self._remember(self._last_for_flow, flow, seq)
            if vlan is not None:
                self._remember(self._last_for_vlan, vlan, seq)

    def _remember(self, table: OrderedDict, key, value) -> None:
        if len(table) >= self.capacity and key not in table:
            table.popitem(last=False)
        table[key] = value

    # ------------------------------------------------------------------
    # Flow aliases — ``(vlan, FiveTuple.as_key())``, ints either end of
    # the shim protocol can compute without rendering — to flow ids.
    # ------------------------------------------------------------------
    def bind_flow(self, alias: object, flow_id: str) -> None:
        aliases = self._aliases
        if len(aliases) < self.capacity:
            aliases[alias] = flow_id
        else:
            self._remember(aliases, alias, flow_id)

    def flow_for(self, alias: object) -> Optional[str]:
        return self._aliases.get(alias)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def events(self) -> List[JournalEvent]:
        return [JournalEvent((*row[:6], dict(zip(row[6], row[7:]))))
                for row in self._events]

    def snapshot(self) -> dict:
        """JSON-safe view of the whole journal (schema
        ``gq.journal/1``) — the unit the merge and the exporters
        consume."""
        return self._snapshot(list(map(_row_dict, self._events)))

    def digest(self) -> str:
        """``journal_digest(self.snapshot())`` without the snapshot:
        each event is rendered as its chunk is hashed."""
        return journal_digest(self._snapshot(map(_row_dict, self._events)))

    def _snapshot(self, events: Iterable[dict]) -> dict:
        return {
            "schema": JOURNAL_SCHEMA,
            "enabled": True,
            "time": round(self.clock(), 9),
            "recorded": self.recorded,
            "evicted": self.evicted,
            "events": events,
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
    "DIGEST_CHUNK",
    "JOURNAL_SCHEMA",
    "Journal",
    "JournalEvent",
    "NULL_JOURNAL",
    "NullJournal",
    "ROOT",
    "journal_digest",
]
