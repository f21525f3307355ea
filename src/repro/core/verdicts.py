"""Containment verdicts — the flow manipulation modes of Figure 2.

The containment server answers every new flow with a verdict:

* ``FORWARD`` — let the flow through to its intended destination.
* ``LIMIT``   — forward, but rate-limit it.
* ``DROP``    — kill the flow.
* ``REDIRECT``— connect the inmate to a *different* destination.
* ``REFLECT`` — bounce the flow to a sink server inside the farm.
* ``REWRITE`` — proxy the flow through the containment server, which
  may alter, truncate, or extend its contents.

Endpoint control (the first five) is decided once at flow start and
then enforced by the gateway alone; content control (REWRITE) keeps
the containment server in the path for the flow's lifetime.  The
paper notes verdicts may combine "when feasible" — e.g. redirecting a
flow while also rewriting contents — which :class:`Verdict` models as
a flag set with exactly one endpoint op.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Set

from repro.net.addresses import IPv4Address


class Verdict(enum.IntFlag):
    """Numeric opcodes carried in the response shim."""

    FORWARD = 1
    LIMIT = 2
    DROP = 4
    REDIRECT = 8
    REFLECT = 16
    REWRITE = 32

    @property
    def label(self) -> str:
        """Stable human-readable name, e.g. ``FORWARD`` or
        ``REDIRECT|REWRITE`` (IntFlag.__str__ is version-dependent)."""
        label = _LABELS.get(self._value_)
        if label is None:
            parts = [
                op.name for op in (Verdict.FORWARD, Verdict.LIMIT,
                                   Verdict.DROP, Verdict.REDIRECT,
                                   Verdict.REFLECT, Verdict.REWRITE)
                if self & op
            ]
            label = _LABELS[self._value_] = "|".join(parts) or "NONE"
        return label

    @classmethod
    def from_label(cls, label: str) -> "Verdict":
        """Inverse of :attr:`label`, for the sites that hold verdicts as
        text (certificates, journal events, activity reports).  A name
        it does not know contributes nothing: those documents can come
        from disk."""
        value = 0
        for name in label.split("|"):
            value |= cls.__members__.get(name, 0)
        return cls(value)

    @property
    def endpoint_op(self) -> "Verdict":
        """The single endpoint-control component of this verdict."""
        value = self._value_
        for bit, op in _ENDPOINT_PRIORITY:
            if value & bit:
                return op
        raise ValueError(f"verdict {self!r} has no endpoint op")

    @property
    def is_content_control(self) -> bool:
        return self._value_ & _REWRITE != 0

    @property
    def is_limited(self) -> bool:
        return self._value_ & _LIMIT != 0

    @property
    def needs_target(self) -> bool:
        return self._value_ & _NEEDS_TARGET != 0

    @property
    def grants_world(self) -> bool:
        """True when the endpoint op sends the flow on to the
        destination the inmate addressed — FORWARD or LIMIT — i.e. the
        only verdicts that may open an inmate→world path on their own.
        REDIRECT may still reach the world through its *target*; the
        isolation verifier (:mod:`repro.verify`) classifies that case
        by where the target address lives."""
        return bool(self & (Verdict.FORWARD | Verdict.LIMIT)) and not (
            self & (Verdict.DROP | Verdict.REDIRECT | Verdict.REFLECT))

    def validate(self) -> None:
        """Reject nonsensical combinations (e.g. DROP + REWRITE)."""
        if self._value_ in _VALIDATED:
            return
        endpoint_ops = [
            op for op in (Verdict.FORWARD, Verdict.LIMIT, Verdict.DROP,
                          Verdict.REDIRECT, Verdict.REFLECT)
            if self & op
        ]
        if len(endpoint_ops) == 0 and not self & Verdict.REWRITE:
            raise ValueError("verdict must include an operation")
        if len(endpoint_ops) > 1 and set(endpoint_ops) != {
            Verdict.FORWARD, Verdict.LIMIT
        }:
            raise ValueError(f"conflicting endpoint ops in {self!r}")
        if self & Verdict.DROP and self & Verdict.REWRITE:
            raise ValueError("DROP cannot combine with REWRITE")
        _VALIDATED.add(self._value_)


# A verdict is one of a handful of bit patterns issued once per flow,
# and every ``self & op`` or ``op | op`` re-enters enum.py four frames
# deep: answer per ``_value_`` or against an int mask instead.  The enum
# caches one pseudo-member per distinct value, so the two caches never
# hold more keys than ``Verdict`` itself does.
_LABELS: Dict[int, str] = {}
_VALIDATED: Set[int] = set()
_LIMIT = Verdict.LIMIT._value_
_REWRITE = Verdict.REWRITE._value_
_NEEDS_TARGET = (Verdict.REDIRECT | Verdict.REFLECT)._value_
_ENDPOINT_PRIORITY = tuple(
    (op._value_, op) for op in (Verdict.DROP, Verdict.REDIRECT,
                                Verdict.REFLECT, Verdict.FORWARD,
                                Verdict.LIMIT))


class ContainmentDecision:
    """A verdict plus its parameters, as issued by a policy.

    ``target`` carries the resulting destination for REDIRECT/REFLECT
    (the response shim's "resulting endpoint four-tuple").  ``rate``
    carries the LIMIT budget in new-flow-bytes per second.  ``policy``
    and ``annotation`` flow into the response shim verbatim and end up
    in the activity reports.

    A decision is read-only once built: a policy hands every flow one
    of its actions decides the same decision, and the gateway one per
    response-shim tail.
    """

    __slots__ = ("verdict", "target_ip", "target_port", "rate",
                 "policy", "annotation")

    def __init__(
        self,
        verdict: Verdict,
        target_ip: Optional[IPv4Address] = None,
        target_port: Optional[int] = None,
        rate: Optional[float] = None,
        policy: str = "",
        annotation: str = "",
    ) -> None:
        verdict.validate()
        if target_ip is not None:
            target_ip = IPv4Address(target_ip)
        elif verdict._value_ & _NEEDS_TARGET:
            raise ValueError(f"{verdict!r} requires a target address")
        init = object.__setattr__
        init(self, "verdict", verdict)
        init(self, "target_ip", target_ip)
        init(self, "target_port", target_port)
        init(self, "rate", rate)
        init(self, "policy", policy)
        init(self, "annotation", annotation)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"a ContainmentDecision is shared and "
                             f"read-only: cannot set {name!r}")

    # Convenience constructors mirror Figure 2 -------------------------
    @classmethod
    def forward(cls, policy: str = "", annotation: str = "") -> "ContainmentDecision":
        return cls(Verdict.FORWARD, policy=policy, annotation=annotation)

    @classmethod
    def drop(cls, policy: str = "", annotation: str = "") -> "ContainmentDecision":
        return cls(Verdict.DROP, policy=policy, annotation=annotation)

    @classmethod
    def redirect(cls, ip: IPv4Address, port: Optional[int] = None,
                 policy: str = "", annotation: str = "") -> "ContainmentDecision":
        return cls(Verdict.REDIRECT, target_ip=ip, target_port=port,
                   policy=policy, annotation=annotation)

    @classmethod
    def reflect(cls, sink_ip: IPv4Address, sink_port: Optional[int] = None,
                policy: str = "", annotation: str = "") -> "ContainmentDecision":
        return cls(Verdict.REFLECT, target_ip=sink_ip, target_port=sink_port,
                   policy=policy, annotation=annotation)

    @classmethod
    def rewrite(cls, policy: str = "", annotation: str = "") -> "ContainmentDecision":
        return cls(Verdict.REWRITE, policy=policy, annotation=annotation)

    def __repr__(self) -> str:
        extra = ""
        if self.target_ip is not None:
            extra = f" -> {self.target_ip}:{self.target_port or '*'}"
        if self.rate is not None:
            extra += f" rate={self.rate}"
        return f"<Decision {self.verdict!r}{extra} policy={self.policy!r}>"
