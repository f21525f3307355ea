"""Fault plans: what goes wrong, where, and when — as pure data.

A :class:`FaultSpec` names one fault; a :class:`FaultPlan` is an
ordered list of them.  Like :class:`~repro.parallel.ShardSpec`, a plan
round-trips through JSON so it can ride inside a
:meth:`~repro.farm.FarmConfig.to_dict` payload to a spawn-started
campaign worker and be logged next to the results it produced.

Fault kinds
-----------
Shim link (gateway ↔ containment server, both directions):

``shim_delay``
    Add ``delay`` (+ uniform ``jitter``) seconds to every shim-link
    packet inside the ``start``/``end`` window.  Delivery stays FIFO
    per direction so the TCP substrate never sees reordering.
``shim_drop``
    Drop each shim-link packet with ``probability`` inside the window.
``shim_partition``
    Drop *every* shim-link packet inside the window.

Containment server (``server`` selects the index within the subfarm,
0 = the primary, 1.. = servers added by ``add_containment_servers``):

``cs_crash``
    At virtual time ``at`` the server falls silent: it stops issuing
    verdicts and the link view drops its traffic both ways.  With
    ``restore_after`` it comes back that many seconds later (health
    probes then return it to service).
``cs_hang``
    Verdicts computed inside the window are held and flushed when the
    window ends — the late-verdict case the router must tolerate.
``cs_slow``
    Add ``extra`` seconds of service time inside the window.

Hosting backend (``vlan`` optionally targets one inmate):

``revert_fail`` / ``reboot_fail``
    The next ``count`` matching life-cycle completions fail (the
    inmate lands back in STOPPED); ``count=None`` means every one
    inside the window.

Campaign workers (``shard`` is required):

``worker_crash`` / ``worker_hang`` / ``worker_error``
    The targeted shard kills its worker (``exitcode``), sleeps
    ``wall_seconds`` (tripping the pool's shard timeout), or fails
    with ``message``.

``subfarm=None`` targets every subfarm; times are virtual-clock
seconds.  All randomness (``shim_drop``, jitter) draws from a named
RNG stream derived from the farm seed, so identical seed + identical
plan ⇒ identical run.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence, Union

from repro.shape import NUMBER, REQUIRED, Table, check

__all__ = [
    "FAULT_PLAN",
    "FAULT_SPEC",
    "FaultPlan",
    "FaultSpec",
    "LIFECYCLE_KINDS",
    "LINK_KINDS",
    "SERVER_KINDS",
    "WORKER_KINDS",
]

LINK_KINDS = frozenset({"shim_delay", "shim_drop", "shim_partition"})
SERVER_KINDS = frozenset({"cs_crash", "cs_hang", "cs_slow"})
LIFECYCLE_KINDS = frozenset({"revert_fail", "reboot_fail"})
WORKER_KINDS = frozenset({"worker_crash", "worker_hang", "worker_error"})
KINDS = LINK_KINDS | SERVER_KINDS | LIFECYCLE_KINDS | WORKER_KINDS

#: Every field with its kind and default, in canonical emission order.
#: ``to_dict`` emits only non-default fields (plus ``kind``) so plans
#: stay readable and their digests stable under future field additions.
FAULT_SPEC = Table("FaultSpec", {
    "kind": (str, REQUIRED),
    "subfarm": (str, None),
    "server": (int, 0),
    "vlan": (int, None),
    "shard": (int, None),
    "at": (NUMBER, None),
    "start": (NUMBER, 0.0),
    "end": (NUMBER, None),
    "probability": (NUMBER, 1.0),
    "delay": (NUMBER, 0.0),
    "jitter": (NUMBER, 0.0),
    "extra": (NUMBER, 0.0),
    "count": (int, None),
    "exitcode": (int, 134),
    "wall_seconds": (NUMBER, 3600.0),
    "message": (str, "injected worker error"),
    "restore_after": (NUMBER, None),
})
FAULT_PLAN = Table("FaultPlan", {"specs": ([FAULT_SPEC], None)})


class FaultSpec:
    """One fault: a kind plus targeting and timing fields."""

    __slots__ = tuple(FAULT_SPEC.fields)

    def __init__(self, kind: str, **fields: Any) -> None:
        for name, value in check(FAULT_SPEC,
                                 dict(fields, kind=kind)).items():
            setattr(self, name, value)
        self.validate()

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(known: {sorted(KINDS)})")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        for name in ("delay", "jitter", "extra", "start", "wall_seconds"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.end is not None and self.end <= self.start:
            raise ValueError("end must be > start")
        if self.kind == "cs_crash" and self.at is None:
            raise ValueError("cs_crash requires at=")
        if self.at is not None and self.at < 0.0:
            raise ValueError("at must be >= 0")
        if self.restore_after is not None and self.restore_after <= 0.0:
            raise ValueError("restore_after must be > 0")
        if self.kind in WORKER_KINDS and self.shard is None:
            raise ValueError(f"{self.kind} requires shard=")
        if self.count is not None and self.count < 1:
            raise ValueError("count must be >= 1")
        if self.server < 0:
            raise ValueError("server index must be >= 0")

    def active(self, now: float) -> bool:
        """Is the spec's ``start``/``end`` window open at ``now``?"""
        return self.start <= now and (self.end is None or now < self.end)

    def to_dict(self) -> dict:
        return {name: getattr(self, name)
                for name, (_kind, default) in FAULT_SPEC.fields.items()
                if getattr(self, name) != default}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(**check(FAULT_SPEC, data))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.to_dict().items()
                           if k != "kind")
        return f"<FaultSpec {self.kind} {fields}>"


class FaultPlan:
    """An ordered list of :class:`FaultSpec`; empty means no faults."""

    __slots__ = ("specs",)

    def __init__(self, specs: Sequence[Union[FaultSpec, dict]] = ()) -> None:
        self.specs: List[FaultSpec] = [
            spec if isinstance(spec, FaultSpec) else FaultSpec.from_dict(spec)
            for spec in specs
        ]

    @property
    def is_empty(self) -> bool:
        return not self.specs

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    @classmethod
    def coerce(cls, value: Union[None, dict, list,
                                 "FaultPlan"]) -> "FaultPlan":
        """Accept ``None`` / dict / spec list / plan; always a plan."""
        if value is None:
            return cls()
        if isinstance(value, FaultPlan):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        return cls(value)

    # ------------------------------------------------------------------
    # Targeting helpers
    # ------------------------------------------------------------------
    def for_subfarm(self, name: str) -> List[FaultSpec]:
        """Farm-side specs targeting ``name`` (or every subfarm)."""
        return [spec for spec in self.specs
                if spec.kind not in WORKER_KINDS
                and (spec.subfarm is None or spec.subfarm == name)]

    def worker_faults(self) -> Dict[int, dict]:
        """Worker-process specs keyed by shard index, as plain dicts
        (the form :func:`repro.parallel.run_campaign` stamps onto shard
        payloads)."""
        out: Dict[int, dict] = {}
        for spec in self.specs:
            if spec.kind in WORKER_KINDS:
                out[int(spec.shard)] = spec.to_dict()
        return out

    def verdict_outage_windows(self, subfarm: str,
                               server_count: int = 1) -> List[dict]:
        """Time windows during which the subfarm's verdict plane may be
        unavailable, as ``{"start", "end", "kind"}`` dicts (``end`` is
        ``None`` for an unbounded outage).

        This is the fault-plan overlay the isolation verifier layers
        over the static policy model: inside an outage window the
        pending policy — not the containment policy — decides flows, so
        a ``pending_policy="forward"`` subfarm has a fail-open grant
        exactly here.  Conservative by design: a window is emitted when
        the fault *could* starve verdicts, not only when it provably
        does.

        * Link faults (partition, lossy drop, delay past any deadline
          cannot be judged here — delay is excluded) hit every server
          at once: one window regardless of ``server_count``.
        * Server faults only open a window when the plan takes out
          every one of ``server_count`` servers for that period; a
          single crashed server of two leaves the other one able to
          answer, so no overlay.
        """
        windows: List[dict] = []
        per_server: Dict[int, List[tuple]] = {}
        for spec in self.for_subfarm(subfarm):
            if spec.kind == "shim_partition" or (
                    spec.kind == "shim_drop" and spec.probability > 0.0):
                windows.append({"start": spec.start, "end": spec.end,
                                "kind": spec.kind})
            elif spec.kind == "cs_crash":
                end = (spec.at + spec.restore_after
                       if spec.restore_after is not None else None)
                per_server.setdefault(spec.server, []).append(
                    (spec.at, end, spec.kind))
            elif spec.kind in ("cs_hang", "cs_slow"):
                per_server.setdefault(spec.server, []).append(
                    (spec.start, spec.end, spec.kind))
        # Server faults: intersect across all servers — an outage only
        # exists while *every* server is out.
        if len(per_server) >= max(1, server_count) \
                and all(index in per_server
                        for index in range(server_count)):
            for start, end, kind in per_server.get(0, []):
                covered = all(
                    any(o_start <= start
                        and (o_end is None
                             or (end is not None and end <= o_end))
                        for o_start, o_end, _ in per_server[index])
                    for index in range(1, server_count))
                if covered:
                    windows.append({"start": start, "end": end,
                                    "kind": kind})
        windows.sort(key=lambda w: (w["start"],
                                    w["end"] if w["end"] is not None
                                    else float("inf")))
        return windows

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(check(FAULT_PLAN, data)["specs"] or ())

    def digest(self) -> str:
        """sha256 over the canonical JSON of the plan."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def __repr__(self) -> str:
        return f"<FaultPlan specs={len(self.specs)}>"
