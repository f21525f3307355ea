"""The one labelled merge for sharded campaigns.

A parallel campaign (:mod:`repro.parallel`) produces one telemetry
snapshot (:func:`repro.obs.export.snapshot`) and, when journaling, one
journal snapshot (:meth:`repro.obs.journal.Journal.snapshot`) per
shard, each captured inside its own process.  :func:`merge` views a
campaign as one domain without losing per-shard attribution — or
determinism.  Whatever the schema, it

* checks its arguments and that every snapshot has the same schema,
* folds ``enabled`` (any) and ``time`` (max),
* stamps every identity with the shard's labels,
* unions the stamped identities (a collision is a caller bug and
  raises, naming both contributing sources), and
* orders the result canonically, so merging the same shard snapshots
  in any order, from any number of worker processes on any hosts,
  yields byte-identical JSON.

What differs per schema is data (:data:`SHAPES`): which sections are
identity-keyed unions, which are accounting sums, whether there is an
event list, and how an identity takes labels — a metric identity
``name{a=b}`` becomes ``name{a=b,shard=3}`` (labels re-sorted so
identities stay canonical); a journal ring name, event seq, parent or
flow id ``x`` becomes ``shard=3/x``, so causal chains stay intact and
cannot collide across shards.  Events sort by ``(time, shard labels,
per-shard seq)`` — a pure function of the shard snapshots.

Relabeling instead of summing keeps the merge lossless.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.obs.export import SNAPSHOT_SCHEMA
from repro.obs.journal import JOURNAL_SCHEMA
from repro.obs.metrics import parse_identity

__all__ = ["SHAPES", "label_identity", "merge"]


def label_identity(identity: str, **labels: str) -> str:
    """Add labels to a rendered metric identity, keeping sorted order."""
    name, existing = parse_identity(identity)
    merged = dict(existing)
    for key, value in labels.items():
        if key in merged and merged[key] != str(value):
            raise ValueError(
                f"label {key!r} already set on {identity!r} "
                f"({merged[key]!r} != {value!r})")
        merged[key] = str(value)
    if not merged:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(merged.items()))
    return f"{name}{{{inner}}}"


def _stamp_metric(identity: str, labels: Dict[str, str],
                  prefix: str) -> str:
    return label_identity(identity, **labels)


def _stamp_path(identity: object, labels: Dict[str, str],
                prefix: str) -> str:
    return f"{prefix}/{identity}"


class Shape(NamedTuple):
    """How snapshots of one schema merge."""

    unions: Tuple[str, ...]  # identity-keyed sections, stamped + unioned
    sums: Tuple[str, ...]    # scalar accounting, added across shards
    events: bool             # an "events" list, stamped + time-sorted
    stamp: Callable          # (identity, labels, prefix) -> identity


SHAPES: Dict[str, Shape] = {
    SNAPSHOT_SCHEMA: Shape(("counters", "gauges", "histograms"), (),
                           False, _stamp_metric),
    JOURNAL_SCHEMA: Shape(("rings",), ("recorded", "evicted"),
                          True, _stamp_path),
}


def merge(snaps: List[dict],
          labels: Optional[List[Dict[str, str]]] = None,
          sources: Optional[List[str]] = None) -> dict:
    """Merge shard snapshots of one schema into one campaign snapshot.

    ``labels[i]`` (e.g. ``{"shard": "3"}``) stamps ``snaps[i]``; label
    sets must be unique per shard.  Omit ``labels`` only when
    identities are already disjoint.  ``sources[i]`` (e.g. ``"shard 3
    @ hostB:9000"``) names where ``snaps[i]`` came from, for error
    messages only.  Raises ``ValueError`` on a schema mismatch, a
    duplicate label set or an identity collision, naming both sources.
    """
    if labels is not None and len(labels) != len(snaps):
        raise ValueError("need exactly one label set per snapshot")
    if sources is not None and len(sources) != len(snaps):
        raise ValueError("need exactly one source name per snapshot")

    def source(position: int) -> str:
        return sources[position] if sources is not None \
            else f"snapshot {position}"

    merged: dict = {"schema": None, "enabled": False, "time": 0.0}
    shape: Optional[Shape] = None
    prefixes: Dict[str, int] = {}              # label set -> position
    origins: Dict[Tuple[str, object], int] = {}  # identity -> position
    keyed_events = []

    def claim(section: str, identity: object, position: int) -> None:
        first = origins.setdefault((section, identity), position)
        if first != position:
            raise ValueError(
                f"identity collision while merging {section}: "
                f"{identity!r} contributed by both {source(first)} "
                f"and {source(position)} (pass unique labels= to "
                f"disambiguate)")

    for position, snap in enumerate(snaps):
        schema = snap.get("schema")
        if shape is None:
            shape = SHAPES.get(schema)
            if shape is None:
                raise ValueError(
                    f"cannot merge snapshots of unknown schema "
                    f"{schema!r} (from {source(position)})")
            merged["schema"] = schema
            for section in shape.sums:
                merged[section] = 0
            if shape.events:
                merged["events"] = []
            for section in shape.unions:
                merged[section] = {}
        elif schema != merged["schema"]:
            raise ValueError(
                f"snapshot schema mismatch: {schema!r} from "
                f"{source(position)} != {merged['schema']!r} from "
                f"{source(0)}")
        label_set = None
        prefix = ""
        if labels is not None:
            label_set = {k: str(v) for k, v in labels[position].items()}
            prefix = ",".join(f"{k}={v}"
                              for k, v in sorted(label_set.items()))
            first = prefixes.setdefault(prefix, position)
            if first != position:
                raise ValueError(
                    f"duplicate shard labels while merging: {prefix!r} "
                    f"used by both {source(first)} and "
                    f"{source(position)} (labels must be unique per "
                    f"shard)")
        merged["enabled"] = merged["enabled"] or bool(snap.get("enabled"))
        merged["time"] = max(merged["time"], snap.get("time", 0.0))
        for section in shape.sums:
            merged[section] += snap.get(section, 0)
        for section in shape.unions:
            target = merged[section]
            for identity, value in (snap.get(section) or {}).items():
                if label_set is not None:
                    identity = shape.stamp(identity, label_set, prefix)
                claim(section, identity, position)
                target[identity] = value
        if shape.events:
            for event in snap.get("events", ()):
                out = dict(event)
                if label_set is not None:
                    for ref in ("seq", "parent", "flow"):
                        if event.get(ref) is not None:
                            out[ref] = shape.stamp(event[ref], label_set,
                                                   prefix)
                    out["shard"] = prefix
                claim("events", out["seq"], position)
                keyed_events.append(
                    ((event["t"], prefix, event["seq"]), out))

    if shape is not None:
        for section in shape.unions:
            merged[section] = dict(sorted(merged[section].items()))
        if shape.events:
            keyed_events.sort(key=lambda pair: pair[0])
            merged["events"] = [event for _, event in keyed_events]
    return merged
