"""Compile the containment decision surface into a finite model.

The verifier's object of study is everything that can turn an inmate
packet into an upstream packet: the per-VLAN containment policy, the
safety filter, the failover pending policy, and the fault-plan
windows during which the pending policy — not the containment policy
— answers flows.  This module flattens all of it into pure data:

* an **abstract flow** is ``(src VLAN range, dst class, proto, port
  atom, content class)`` — dst class is ``world`` (an address outside
  the farm) or ``farm`` (a service or another inmate), and a port
  atom is one interval of the partition of ``[0, 65535]`` induced by
  the policy's rule boundaries;
* a :class:`PolicyModel` is the policy's complete decision surface
  over abstract flows — a projection of the table the policy
  **publishes** (:meth:`~repro.core.policy.ContainmentPolicy.surface`:
  the very table the containment server answers flows from, compiled
  from the rules a policy class declares or a DSL program states —
  every policy publishes one, since none may decide by hand);
* a :class:`SubfarmModel` adds the subfarm's pending policy, its
  verdict-outage overlay windows from the fault plan
  (:meth:`~repro.faults.plan.FaultPlan.verdict_outage_windows`), and
  the safety filter's rate envelope;
* an :class:`IsolationModel` is the farm: a list of subfarm models
  plus a canonical digest that pins certificate identity.

The known abstraction gaps (model vs runtime) are catalogued in
docs/VERIFICATION.md.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Optional, Tuple

from repro.core.policy import DIRECTIONS, UNBOUND, ContainmentPolicy
from repro.core.verdicts import ContainmentDecision
from repro.faults.plan import FaultPlan
from repro.net.packet import PROTO_TCP, PROTO_UDP

__all__ = [
    "DIRECTIONS",
    "IsolationModel",
    "Outcome",
    "PolicyModel",
    "SubfarmModel",
    "compile_farm",
    "compile_policy",
]

PROTO_NAMES = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}


class Outcome:
    """One cell of a policy's decision surface."""

    __slots__ = ("direction", "proto", "port_lo", "port_hi", "content",
                 "verdict", "target", "target_class", "rate")

    def __init__(self, direction: str, proto: int, port_lo: int,
                 port_hi: int, content: str,
                 decision: ContainmentDecision) -> None:
        self.direction = direction
        self.proto = proto
        self.port_lo = port_lo
        self.port_hi = port_hi
        self.content = content
        self.verdict = decision.verdict.label
        self.rate = decision.rate
        ip = decision.target_ip
        self.target = self.target_class = None
        if ip == UNBOUND:  # a service, or a built redirect's inmate
            self.target_class = "farm"
        elif ip is not None:
            self.target = str(ip)
            self.target_class = "farm" if ip.is_rfc1918() else "world"

    def to_dict(self) -> dict:
        out = {
            "direction": self.direction,
            "proto": PROTO_NAMES[self.proto],
            "ports": [self.port_lo, self.port_hi],
            "content": self.content,
            "verdict": self.verdict,
        }
        if self.target is not None:
            out["target"] = self.target
        if self.target_class is not None:
            out["target_class"] = self.target_class
        if self.rate is not None:
            out["rate"] = self.rate
        return out

    def __repr__(self) -> str:
        return (f"<Outcome {self.direction} "
                f"{PROTO_NAMES[self.proto]}:{self.port_lo}-{self.port_hi} "
                f"content={self.content} -> {self.verdict}>")


class PolicyModel:
    """A policy's complete decision surface over abstract flows."""

    __slots__ = ("description", "outcomes")

    def __init__(self, description: dict, outcomes: List[Outcome]) -> None:
        self.description = description
        self.outcomes = outcomes

    def cells(self, direction: str, proto: int) -> List[Outcome]:
        return [cell for cell in self.outcomes
                if cell.direction == direction and cell.proto == proto]

    def to_dict(self) -> dict:
        return {
            "policy": self.description,
            "outcomes": [cell.to_dict() for cell in self.outcomes],
        }


# ----------------------------------------------------------------------
# Policy compilation
# ----------------------------------------------------------------------
def compile_policy(policy: ContainmentPolicy) -> PolicyModel:
    """A policy's model: the cells of the surface it publishes."""
    outcomes = [Outcome(direction, proto, lo, hi, content, decision)
                for (direction, proto), atoms in policy.surface().items()
                for lo, hi, branches in atoms
                for content, decision in branches]
    return PolicyModel(policy.describe(), outcomes)


# ----------------------------------------------------------------------
# Subfarm / farm compilation
# ----------------------------------------------------------------------
class SubfarmModel:
    """One subfarm's decision surface plus its failure overlays."""

    __slots__ = ("name", "assignments", "pending_policy", "overlays",
                 "safety", "server_count", "malice_policy")

    def __init__(self, name: str,
                 assignments: List[Tuple[Optional[int], Optional[int],
                                         PolicyModel]],
                 pending_policy: Optional[str],
                 overlays: List[dict], safety: Optional[dict],
                 server_count: int, malice_policy: str = "isolate") -> None:
        self.name = name
        self.assignments = assignments
        self.pending_policy = pending_policy
        self.overlays = overlays
        self.safety = safety
        self.server_count = server_count
        self.malice_policy = malice_policy

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "assignments": [
                {"vlans": ("*" if lo is None else [lo, hi]),
                 **model.to_dict()}
                for lo, hi, model in self.assignments
            ],
            "pending_policy": self.pending_policy,
            "overlays": self.overlays,
            "safety": self.safety,
            "server_count": self.server_count,
            "malice_policy": self.malice_policy,
        }


class IsolationModel:
    """The farm-level model a certificate classifies."""

    SCHEMA = "gq.verify.model/2"

    __slots__ = ("subfarms", "seed")

    def __init__(self, subfarms: List[SubfarmModel],
                 seed: Optional[int] = None) -> None:
        self.subfarms = subfarms
        self.seed = seed

    def describe(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "seed": self.seed,
            "subfarms": [subfarm.to_dict() for subfarm in self.subfarms],
        }

    def digest(self) -> str:
        blob = json.dumps(self.describe(), sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()


def compile_subfarm(subfarm, plan: FaultPlan) -> SubfarmModel:
    """Compile one live :class:`~repro.farm.Subfarm`."""
    assignments: List[tuple] = []
    for (lo, hi), policy in sorted(subfarm.policy_map.policies().items()):
        assignments.append((lo, hi, compile_policy(policy)))
    assignments.append((None, None,
                        compile_policy(subfarm.policy_map.default)))

    resilience = subfarm.resilience
    pending = (resilience.config.pending_policy
               if resilience is not None else None)
    server_count = max(1, len(subfarm._cs_servers))
    overlays = (plan.verdict_outage_windows(subfarm.name, server_count)
                if resilience is not None else [])
    return SubfarmModel(
        subfarm.name, assignments, pending, overlays,
        subfarm.safety.bounds(), server_count,
        malice_policy=subfarm.farm.config.malice_policy)


def compile_farm(farm, plan=None) -> IsolationModel:
    """Compile a live farm (and optionally an explicit fault plan —
    defaults to the farm's configured one) into an isolation model."""
    if plan is None:
        plan = getattr(farm.config, "fault_plan", None)
    plan = FaultPlan.coerce(plan)
    subfarms = [compile_subfarm(farm.subfarms[name], plan)
                for name in sorted(farm.subfarms)]
    return IsolationModel(subfarms, seed=farm.config.seed)
