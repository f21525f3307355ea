"""Containment policies (§6.2, "Policy structure").

Policies are Python classes, instantiated keyed on VLAN ID ranges and
applied per flow.  "Object-oriented implementation reuse and
specialization lends itself well to the establishment of a hierarchy
of containment policies.  From a base class implementing a
default-deny policy we derive classes for each endpoint control
verdict, and from these specialize further."

A policy answers each flow with a :class:`ContainmentDecision`, either
immediately (endpoint control, keyed on the four-tuple) or after
inspecting the flow's first content bytes (content-dependent
decisions, e.g. whitelisting only C&C-shaped HTTP requests).  REWRITE
decisions additionally supply a :class:`Rewriter` that proxies the
flow through the containment server.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.core.verdicts import ContainmentDecision, Verdict
from repro.net.addresses import IPv4Address
from repro.net.flow import FiveTuple
from repro.net.packet import PROTO_TCP, PROTO_UDP

ServiceMap = Dict[str, Tuple[IPv4Address, int]]

DIRECTIONS = ("outbound", "inbound")
PROTOS = (PROTO_TCP, PROTO_UDP)

#: A published decision surface: per (direction, proto), port atoms
#: ``(lo, hi, branches)`` partitioning ``[0, 65535]`` in ascending
#: order; ``branches`` is the atom's ordered ``(content class,
#: decision)`` list, ending in its one unconditional branch (``"*"``
#: when it is the only one, ``"other"`` after content branches).
Surface = Dict[Tuple[str, int],
               List[Tuple[int, int, List[Tuple[str, ContainmentDecision]]]]]

#: Where a published reflect points while its service is not bound to
#: the policy yet (a policy outside a subfarm): the isolation model
#: records such a cell without an address.
UNBOUND = IPv4Address("0.0.0.0")


class PolicyContext:
    """Everything a policy may consult when deciding a flow."""

    __slots__ = ("flow", "vlan_id", "nonce_port", "now", "services",
                 "subfarm", "inmate_is_originator")

    def __init__(
        self,
        flow: FiveTuple,
        vlan_id: int,
        nonce_port: int,
        now: float,
        services: ServiceMap,
        subfarm: object = None,
        inmate_is_originator: bool = True,
    ) -> None:
        self.flow = flow
        self.vlan_id = vlan_id
        self.nonce_port = nonce_port
        self.now = now
        self.services = services
        self.subfarm = subfarm
        self.inmate_is_originator = inmate_is_originator

    def service(self, name: str) -> Tuple[IPv4Address, int]:
        try:
            return self.services[name]
        except KeyError:
            raise KeyError(
                f"policy requires service {name!r}, not configured in this "
                f"subfarm (have: {sorted(self.services)})"
            ) from None

    def has_service(self, name: str) -> bool:
        return name in self.services


class FlowProxy:
    """The containment server's handle a :class:`Rewriter` drives.

    Concrete implementation lives in :mod:`repro.core.server`; this
    class documents the interface rewriters program against.
    """

    def send_to_client(self, data: bytes) -> None:
        raise NotImplementedError

    def send_to_server(self, data: bytes) -> None:
        raise NotImplementedError

    def connect_out(self, ip: Optional[IPv4Address] = None,
                    port: Optional[int] = None) -> None:
        """Open the onward connection through the nonce port."""
        raise NotImplementedError

    def close_client(self) -> None:
        raise NotImplementedError

    def close_server(self) -> None:
        raise NotImplementedError

    @property
    def context(self) -> PolicyContext:
        raise NotImplementedError


class Rewriter:
    """Content-control hooks for one REWRITE-contained flow.

    The default implementation is a faithful transparent proxy: it
    opens the onward connection and copies bytes both ways.  Subclasses
    override the data hooks to rewrite, truncate, extend, or
    impersonate (never calling :meth:`FlowProxy.connect_out` at all).
    """

    def on_open(self, proxy: FlowProxy) -> None:
        proxy.connect_out()

    def on_client_data(self, proxy: FlowProxy, data: bytes) -> None:
        proxy.send_to_server(data)

    def on_server_data(self, proxy: FlowProxy, data: bytes) -> None:
        proxy.send_to_client(data)

    def on_client_close(self, proxy: FlowProxy) -> None:
        proxy.close_server()

    def on_server_close(self, proxy: FlowProxy) -> None:
        proxy.close_client()


class ContainmentPolicy:
    """Base class: complete default-deny.

    "Beginning from a complete default-deny of interaction with the
    outside world" (§3) — the root of the hierarchy drops everything.
    Subclasses loosen specific traffic in the most narrow fashion
    possible.
    """

    #: Name used in response shims and configuration files; defaults
    #: to the class name.
    name: Optional[str] = None

    def __init__(self, services: Optional[ServiceMap] = None,
                 config: Optional[dict] = None) -> None:
        self.services: ServiceMap = dict(services or {})
        self.config = dict(config or {})

    @property
    def policy_name(self) -> str:
        return self.name or type(self).__name__

    # ------------------------------------------------------------------
    def decide(self, ctx: PolicyContext) -> Optional[ContainmentDecision]:
        """Endpoint-control decision; return None to wait for content."""
        return self.deny(ctx)

    def decide_content(self, ctx: PolicyContext,
                       data: bytes) -> Optional[ContainmentDecision]:
        """Called with accumulated client content while undecided."""
        return self.deny(ctx)

    def make_rewriter(self, ctx: PolicyContext) -> Rewriter:
        """Rewriter for flows this policy answered with REWRITE."""
        return Rewriter()

    def rewrite_datagram(self, ctx: PolicyContext,
                         payload: bytes) -> Optional[bytes]:
        """Content control for UDP flows under REWRITE: return the
        datagram to deliver to the inmate (impersonating the original
        destination), or None to stay silent."""
        return None

    # Convenience verdict builders stamped with the policy name --------
    def deny(self, ctx: PolicyContext,
             annotation: str = "default-deny") -> ContainmentDecision:
        return ContainmentDecision.drop(policy=self.policy_name,
                                        annotation=annotation)

    def forward(self, ctx: PolicyContext,
                annotation: str = "") -> ContainmentDecision:
        return ContainmentDecision.forward(policy=self.policy_name,
                                           annotation=annotation)

    def limit(self, ctx: PolicyContext, rate: float,
              annotation: str = "") -> ContainmentDecision:
        return ContainmentDecision.limit(rate, policy=self.policy_name,
                                         annotation=annotation)

    def redirect(self, ctx: PolicyContext, ip: IPv4Address,
                 port: Optional[int] = None,
                 annotation: str = "") -> ContainmentDecision:
        return ContainmentDecision.redirect(ip, port, policy=self.policy_name,
                                            annotation=annotation)

    def reflect(self, ctx: PolicyContext, service: str = "sink",
                annotation: str = "") -> ContainmentDecision:
        ip, port = ctx.service(service)
        # Catch-all sinks accept any port, so preserve the original
        # destination port unless the service pins one.
        return ContainmentDecision.reflect(
            ip, port if port else None,
            policy=self.policy_name, annotation=annotation,
        )

    def rewrite(self, ctx: PolicyContext,
                annotation: str = "") -> ContainmentDecision:
        return ContainmentDecision.rewrite(policy=self.policy_name,
                                           annotation=annotation)

    # ------------------------------------------------------------------
    def surface(self) -> Optional[Surface]:
        """The policy's whole decision surface as data, or None when
        only probing can tell (general Python: the isolation model
        built from probes is marked inexact).  Whoever publishes one
        answers every flow from it — it is what the verifier reads."""
        return None

    def _surface_context(self) -> PolicyContext:
        """What a surface is published under: no flow, and the policy's
        own service map — an unbound name answering :data:`UNBOUND`,
        not the runtime's ``KeyError``."""
        return PolicyContext(None, 0, 0, 0.0, defaultdict(
            lambda: (UNBOUND, 0), self.services))

    def _uniform_surface(self, owner: type) -> Optional[Surface]:
        """The one-cell table of a policy whose ``decide`` ignores the
        flow.  A subclass may decide otherwise, so only ``owner``
        itself publishes it."""
        if type(self) is not owner:
            return None
        decision = self.decide(self._surface_context())
        return {(direction, proto): [(0, 65535, [("*", decision)])]
                for direction in DIRECTIONS for proto in PROTOS}

    def describe(self) -> dict:
        """Identity card for the isolation verifier's certificates.

        Opaque (general-Python) policies carry no decision-surface
        digest — the verifier falls back to concolic probing and marks
        the resulting model inexact.  :class:`repro.core.dsl.DslPolicy`
        overrides this with the program digest.
        """
        return {"policy": self.policy_name, "kind": "opaque"}


# ----------------------------------------------------------------------
# Registry (configuration files refer to policies by name — Figure 6)
# ----------------------------------------------------------------------
POLICY_REGISTRY: Dict[str, Type[ContainmentPolicy]] = {}


def register_policy(cls: Type[ContainmentPolicy]) -> Type[ContainmentPolicy]:
    """Class decorator adding a policy to the by-name registry."""
    key = cls.name or cls.__name__
    if key in POLICY_REGISTRY and POLICY_REGISTRY[key] is not cls:
        raise ValueError(f"policy name {key!r} already registered")
    POLICY_REGISTRY[key] = cls
    return cls


def _load_standard_policies() -> None:
    """Import the policy library so its @register_policy calls run."""
    import repro.policies  # noqa: F401


def policy_class(name: str) -> Type[ContainmentPolicy]:
    if name not in POLICY_REGISTRY:
        _load_standard_policies()
    try:
        return POLICY_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown containment policy {name!r} "
            f"(registered: {sorted(POLICY_REGISTRY)})"
        ) from None


# ----------------------------------------------------------------------
# Generic built-in policies
# ----------------------------------------------------------------------
@register_policy
class DefaultDeny(ContainmentPolicy):
    """Drop every flow — the starting point of policy development."""

    def surface(self) -> Optional[Surface]:
        return self._uniform_surface(DefaultDeny)


@register_policy
class AllowAll(ContainmentPolicy):
    """Forward everything.  The *absence* of containment; exists as the
    unconstrained-execution baseline and for trusted test traffic."""

    def decide(self, ctx: PolicyContext) -> ContainmentDecision:
        return self.forward(ctx, annotation="allow-all")

    def decide_content(self, ctx, data):
        return self.forward(ctx, annotation="allow-all")

    def surface(self) -> Optional[Surface]:
        return self._uniform_surface(AllowAll)


@register_policy
class ReflectAll(ContainmentPolicy):
    """Reflect every flow to the subfarm's sink server.

    The first iteration of the §3 methodology: the specimen comes
    alive against the sink, and the analyst inspects what it tried.
    """

    sink_service = "sink"

    def decide(self, ctx: PolicyContext) -> ContainmentDecision:
        return self.reflect(ctx, self.sink_service,
                            annotation="reflect-all to sink")

    def decide_content(self, ctx, data):
        return self.decide(ctx)

    def surface(self) -> Optional[Surface]:
        return self._uniform_surface(ReflectAll)


class PolicyMap:
    """VLAN-range keyed policy assignment (one instance per range)."""

    def __init__(self, default: Optional[ContainmentPolicy] = None) -> None:
        self.default = default or DefaultDeny()
        self._ranges: Dict[Tuple[int, int], ContainmentPolicy] = {}

    def assign(self, first_vlan: int, last_vlan: int,
               policy: ContainmentPolicy) -> None:
        if first_vlan > last_vlan:
            raise ValueError("empty VLAN range")
        self._ranges[(first_vlan, last_vlan)] = policy

    def resolve(self, vlan: int) -> ContainmentPolicy:
        for (first, last), policy in self._ranges.items():
            if first <= vlan <= last:
                return policy
        return self.default

    def policies(self) -> Dict[Tuple[int, int], ContainmentPolicy]:
        return dict(self._ranges)
