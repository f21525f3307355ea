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

**A policy is a rule list.**  :meth:`ContainmentPolicy.declare` returns
:class:`Rule` objects — first match wins, and what no rule decides gets
the class's ``default`` action; a subclass specializes with
``super().declare() + [more rules]`` and, where it differs, its own
``default``.  The list compiles once per instance
(:func:`compile_table`) into the decision table that the one walker
behind ``decide`` / ``decide_content`` executes and that
:meth:`~ContainmentPolicy.surface` publishes to the isolation verifier:
a policy cannot answer one thing and certify another.  The fields:

* :class:`Rule` — *which flows*: ``direction`` (None: both),
  ``port_lo``–``port_hi``, ``proto`` (None: TCP and UDP), ``dst`` (the
  responder address dialled; published as branch class
  ``dst:<address>``) and ``content`` (a :class:`Content` matcher: the
  flow waits for payload).  A rule with neither ``dst`` nor ``content``
  is unconditional and ends its port atoms' branch lists, so after
  content rules on the same ports it is their fallback, not a
  pre-emption.
* :class:`Content` — ``name`` (the model's content class),
  ``matches(data)`` on the client bytes so far and ``holds(data)``:
  could more bytes still make it match?  Branches are walked in rule
  order: a matching one decides, a holding one waits (nothing later
  pre-empts it), else the next.
* :class:`Action` — ``kind`` (the verdict) and ``annotation``, plus
  ``service`` / ``otherwise`` (reflect to that service, or take
  ``otherwise`` — another sink, a drop — while it is not configured:
  resolved per decision, since policies meet their services after
  construction), ``target_ip`` / ``target_port`` (redirect), ``rate``
  (limit) and ``build`` (the name of a policy method that builds the
  decision per flow, e.g. with the served sample's MD5 or a fresh
  inmate to redirect to; ``kind`` stays the verdict the surface
  declares; a redirect built per flow declares ``target_ip=UNBOUND``,
  and is dropped if it lands outside RFC 1918 space).  A ``build``
  method may decline by returning None: the walker then takes
  ``otherwise``, where :func:`compile_table` refuses anything that
  could leave the farm.

The walker is the only decider: a subclass that defines ``decide``,
``decide_content`` or ``decide_datagram`` is a ``TypeError`` at class
creation; content control stays in ``make_rewriter`` and
``rewrite_datagram``.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from typing import (TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional,
                    Tuple, Type, Union)

from repro.core.verdicts import ContainmentDecision, Verdict
from repro.net.addresses import IPv4Address
from repro.net.flow import FiveTuple
from repro.net.packet import PROTO_TCP, PROTO_UDP

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.server import FlowProxy

ServiceMap = Dict[str, Tuple[IPv4Address, int]]

DIRECTIONS = ("outbound", "inbound")
PROTOS = (PROTO_TCP, PROTO_UDP)

#: A published decision surface: per (direction, proto), port atoms
#: ``(lo, hi, branches)`` partitioning ``[0, 65535]`` in ascending
#: order; ``branches`` is the atom's ordered ``(content class,
#: decision)`` list, ending in its one unconditional branch (``"*"``
#: when it is the only one, ``"other"`` after conditional branches).
Surface = Dict[Tuple[str, int],
               List[Tuple[int, int, List[Tuple[str, ContainmentDecision]]]]]

#: Where a published reflect points while its service is not bound to
#: the policy yet (a policy outside a subfarm), and where a built
#: redirect points before its flow picks the target: the isolation
#: model records such a cell in the farm, without an address.
UNBOUND = IPv4Address("0.0.0.0")


class _Unbound(dict):
    """A service map that answers a name it lacks with ``(UNBOUND, 0)``
    without adding it, so ``has_service`` stays false for that name."""

    def __missing__(self, name: str) -> Tuple[IPv4Address, int]:
        return UNBOUND, 0


# ----------------------------------------------------------------------
# Rules as data
# ----------------------------------------------------------------------
class Action(NamedTuple):
    """What a rule does with the flows it decides (module docstring)."""

    kind: str
    annotation: str = ""
    service: Optional[str] = None
    otherwise: Optional["Action"] = None
    target_ip: Optional[IPv4Address] = None
    target_port: Optional[int] = None
    rate: Optional[float] = None
    build: Optional[str] = None


#: What a declining ``build`` without ``otherwise`` answers.
DECLINED = Action("drop", "declined")


def never(data: bytes) -> bool:
    """The wait rule of a matcher that judges the bytes it has."""
    return False


def short_line(data: bytes) -> bool:
    """The families' wait rule: a request line still being typed."""
    return len(data) < 16 and b"\r\n" not in data


def shorter_than(length: int) -> Callable[[bytes], bool]:
    return lambda data: len(data) < length


class Content(NamedTuple):
    """A content matcher: its name, what it matches, how long it waits
    (module docstring); ``starts`` is a prefix matcher's pattern."""

    name: str
    matches: Callable[[bytes], object]
    holds: Callable[[bytes], bool] = never
    starts: Optional[bytes] = None

    @classmethod
    def prefix(cls, pattern: bytes,
               holds: Optional[Callable[[bytes], bool]] = None) -> "Content":
        """Content starting with ``pattern``; unless told otherwise it
        holds a flow whose bytes so far (under 256) are a proper prefix
        of it."""
        def proper_prefix(data: bytes) -> bool:
            return len(data) < 256 and pattern.startswith(data)
        return cls(f"prefix:{pattern.decode('latin-1')!r}",
                   lambda data: data.startswith(pattern),
                   holds or proper_prefix, pattern)

    @classmethod
    def regex(cls, pattern, holds: Callable[[bytes], bool] = never
              ) -> "Content":
        """Content a compiled bytes pattern matches from its start."""
        return cls(f"regex:{pattern.pattern.decode('latin-1')!r}",
                   pattern.match, holds)


class Rule:
    """One ``match -> action`` (module docstring).  ``ports`` is a port
    or a ``(lo, hi)`` range; the defaults match every flow."""

    __slots__ = ("action", "port_lo", "port_hi", "proto", "direction",
                 "content", "dst", "line", "line_number", "hits")

    def __init__(self, action: Action,
                 ports: Union[int, Tuple[int, int]] = (0, 65535),
                 proto: Optional[int] = None,
                 direction: Optional[str] = None,
                 content: Optional[Content] = None,
                 dst: Optional[IPv4Address] = None,
                 line: str = "", line_number: Optional[int] = None) -> None:
        self.action = action
        self.port_lo, self.port_hi = (
            ports if isinstance(ports, tuple) else (ports, ports))
        self.proto = proto
        self.direction = direction
        self.content = content
        self.dst = dst
        self.line = line
        self.line_number = line_number
        self.hits = 0

    @property
    def content_class(self) -> str:
        """The name of what this rule decides within its port atom, as
        the isolation model's cells spell it."""
        parts = [f"dst:{self.dst}"] if self.dst is not None else []
        if self.content is not None:
            parts.append(self.content.name)
        return " ".join(parts) or "other"

    def covers(self, later: "Rule") -> bool:
        """Inside one port atom: does this conditional rule fire on
        every flow ``later`` fires on?  (What ports and directions they
        share is the table's business, not a pairwise question.)"""
        if self.dst not in (None, later.dst):
            return False
        mine, theirs = self.content, later.content
        if mine is None or theirs is None:
            return mine is None
        if mine.starts is not None and theirs.starts is not None:
            return theirs.starts.startswith(mine.starts)  # prefix of prefix
        return mine.name == theirs.name  # the same class

    def __repr__(self) -> str:
        return f"<Rule {self.line or self.content_class!r}>"


class PolicyError(ValueError):
    """A policy that does not compile (``repro.core.dsl.DslError`` for
    a policy program).

    Structured for tooling (the isolation verifier and tests match on
    these instead of parsing messages): ``reason`` is a stable
    kebab-case tag (``missing-default``, ``duplicate-default``,
    ``unknown-action``, ``bad-port-spec``, ``bad-value``,
    ``shadowed-rule``, ``world-granting-otherwise``, ...),
    ``line_number`` the 1-based program line (None for whole-program
    errors and class policies), ``line`` the offending source text.
    """

    def __init__(self, message: str, reason: str = "syntax",
                 line_number: Optional[int] = None,
                 line: str = "") -> None:
        super().__init__(message)
        self.reason = reason
        self.line_number = line_number
        self.line = line


def _in_farm(action: Action) -> bool:
    """Does ``action`` keep a flow inside the farm, whatever the
    subfarm has configured?"""
    if action.kind == "redirect":
        return action.target_ip is not None and action.target_ip.is_rfc1918()
    return action.kind in ("drop", "reflect")


def compile_table(rules: List[Rule], default: Action
                  ) -> Tuple[dict, List[Rule]]:
    """First-match semantics, stated once: ``(direction, proto) ->
    (ascending atom lower bounds, branches per atom)`` — per (direction,
    proto) the partition of ``[0, 65535]`` into port atoms on the
    rules' boundaries, and per atom the rules covering it in order,
    ending in exactly one unconditional branch: the first unconditional
    rule, or ``default``.

    Also returns the dead rules, those that own no branch in any atom:
    every flow such a rule matches is decided ahead of it.  Refuses
    (:class:`PolicyError`) a ``build`` that may decline to an
    alternative reaching the world: the table publishes the built
    verdict, not the alternatives.
    """
    for action in [rule.action for rule in rules] + [default]:
        alternative = action.otherwise if action.build else None
        while alternative is not None:
            if not _in_farm(alternative):
                raise PolicyError(
                    f"{action.build!r} may decline to {alternative.kind!r}, "
                    "which can leave the farm",
                    reason="world-granting-otherwise")
            alternative = alternative.otherwise
    fallback = Rule(default, line="default")
    table = {}
    live = set()
    for direction in DIRECTIONS:
        for proto in PROTOS:
            applicable = [rule for rule in rules
                          if rule.direction in (None, direction)
                          and rule.proto in (None, proto)]
            edges = {0}
            for rule in applicable:
                edges.update((rule.port_lo, rule.port_hi + 1))
            los = sorted(edges - {65536})
            atoms = []
            for lo in los:
                # An atom lies wholly inside or outside every rule's
                # interval, so its lower bound speaks for all of it.
                branches: List[Rule] = []
                for rule in applicable:
                    if not rule.port_lo <= lo <= rule.port_hi or any(
                            earlier.covers(rule) for earlier in branches):
                        continue
                    branches.append(rule)
                    live.add(rule)
                    if rule.content is None and rule.dst is None:
                        break
                else:
                    branches.append(fallback)
                atoms.append(branches)
            table[direction, proto] = (los, atoms)
    return table, [rule for rule in rules if rule not in live]


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
        """The address of service ``name``.  A name this subfarm lacks
        raises a ``KeyError`` whose ``service`` is the name (the
        containment server drops such a flow)."""
        try:
            return self.services[name]
        except KeyError:
            missing = KeyError(
                f"policy requires service {name!r}, not configured in this "
                f"subfarm (have: {sorted(self.services)})")
            missing.service = name
            raise missing from None

    def has_service(self, name: str) -> bool:
        return name in self.services


class Rewriter:
    """Content-control hooks for one REWRITE-contained flow.

    The default implementation is a faithful transparent proxy: it
    opens the onward connection and copies bytes both ways.  Subclasses
    override the data hooks to rewrite, truncate, extend, or
    impersonate (never calling
    :meth:`repro.core.server.FlowProxy.connect_out` at all).
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
    outside world" (§3) — the root of the hierarchy declares no rule
    and drops everything.  Subclasses loosen specific traffic in the
    most narrow fashion possible.
    """

    #: Name used in response shims and configuration files; defaults
    #: to the class name.
    name: Optional[str] = None

    #: What a flow no declared rule decides gets.
    default = Action("drop", "default-deny")

    def __init__(self, services: Optional[ServiceMap] = None,
                 config: Optional[dict] = None) -> None:
        self.services: ServiceMap = dict(services or {})
        self.config = dict(config or {})

    def __init_subclass__(cls, **kwargs) -> None:
        """Refuse a hand-written decider; a name bound to the walker
        itself (the frozen names of ``AllowAll`` and ``DslPolicy``)
        is the walker."""
        super().__init_subclass__(**kwargs)
        for name in ("decide", "decide_content", "decide_datagram"):
            if vars(cls).get(name, vars(ContainmentPolicy)[name]) \
                    is not vars(ContainmentPolicy)[name]:
                raise TypeError(
                    f"{cls.__qualname__} defines {name}: a policy declares "
                    "its rules (declare() / default) and the walker decides")

    @property
    def policy_name(self) -> str:
        return self.name or type(self).__name__

    # ------------------------------------------------------------------
    def declare(self) -> List[Rule]:
        """The policy's rules, first match wins (module docstring).
        Subclasses extend ``super().declare()``."""
        return []

    @cached_property
    def table(self) -> dict:
        """The decision table ``declare()`` and ``default`` compile to,
        built on first use: subclass constructors have run by then."""
        return compile_table(self.declare(), self.default)[0]

    def decide(self, ctx: PolicyContext) -> Optional[ContainmentDecision]:
        """Endpoint-control decision; None to wait for content."""
        return self._walk(ctx, None)

    def decide_content(self, ctx: PolicyContext,
                       data: bytes) -> Optional[ContainmentDecision]:
        """Called with accumulated client content while undecided."""
        return self._walk(ctx, data)

    def decide_datagram(self, ctx: PolicyContext,
                        data: bytes) -> Optional[ContainmentDecision]:
        """``decide_content`` for a datagram, which is the whole content:
        a branch holding out for more bytes is passed over, so the walk
        always decides."""
        return self._walk(ctx, data, whole=True)

    def _walk(self, ctx: PolicyContext, data: Optional[bytes],
              whole: bool = False) -> Optional[ContainmentDecision]:
        """The one reading of the table: the branches of the flow's
        port atom in order.  The last is unconditional, so with content
        in hand the walk always returns."""
        flow = ctx.flow
        los, atoms = self.table[
            "outbound" if ctx.inmate_is_originator else "inbound", flow.proto]
        for branch in atoms[bisect_right(los, flow.resp_port) - 1]:
            if branch.dst is not None and branch.dst != flow.resp_ip:
                continue
            content = branch.content
            if content is not None:
                if data is None:
                    return None  # wait for the first payload bytes
                if not content.matches(data):
                    if not whole and content.holds(data):
                        return None  # more bytes could still match
                    continue
            branch.hits += 1
            action = branch.action
            if action.build is not None:
                decision = getattr(self, action.build)(ctx)
                if decision is None:        # declined: the alternatives
                    action = action.otherwise or DECLINED
                elif (decision.verdict & Verdict.REDIRECT
                      and not decision.target_ip.is_rfc1918()):
                    return self.deny(ctx, "built redirect outside the farm")
                else:
                    return decision
            return self._decision_for(ctx, action)

    def _decision_for(self, ctx: PolicyContext,
                      action: Action) -> ContainmentDecision:
        """The decision ``action`` declares, under ``ctx``'s services (a
        built action's ``otherwise`` is the walker's, taken on decline)."""
        while (action.otherwise is not None and action.build is None
               and not ctx.has_service(action.service)):
            action = action.otherwise
        if action.kind == "reflect":
            return self.reflect(ctx, action.service, action.annotation)
        return ContainmentDecision(
            Verdict[action.kind.upper()], action.target_ip,
            action.target_port, action.rate, self.policy_name,
            action.annotation)

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
    def surface(self) -> Surface:
        """The policy's whole decision surface as data: the table it
        executes, each action as the decision it declares."""
        # Published under no flow and the policy's own service map, an
        # unbound name answering UNBOUND, not the runtime's KeyError.
        ctx = PolicyContext(None, 0, 0, 0.0, _Unbound(self.services))
        published: Surface = {}
        for key, (los, atoms) in self.table.items():
            his = [lo - 1 for lo in los[1:]] + [65535]
            published[key] = [
                (lo, hi, [("*" if len(branches) == 1 else branch.content_class,
                           self._decision_for(ctx, branch.action))
                          for branch in branches])
                for lo, hi, branches in zip(los, his, atoms)]
        return published

    def describe(self) -> dict:
        """Identity card for the isolation verifier's certificates.

        Class policies carry no decision-surface digest (``kind`` reads
        ``class``); :class:`repro.core.dsl.DslPolicy` overrides this
        with the program digest.
        """
        return {"policy": self.policy_name, "kind": "class"}


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


@register_policy
class AllowAll(ContainmentPolicy):
    """Forward everything.  The *absence* of containment; exists as the
    unconstrained-execution baseline and for trusted test traffic."""

    default = Action("forward", "allow-all")

    # Frozen names (docs/PERFORMANCE.md): the ledger's tracer wraps
    # these through the class's own __dict__.
    decide = ContainmentPolicy.decide
    decide_content = ContainmentPolicy.decide_content


@register_policy
class ReflectAll(ContainmentPolicy):
    """Reflect every flow to the subfarm's sink server.

    The first iteration of the §3 methodology: the specimen comes
    alive against the sink, and the analyst inspects what it tried.
    """

    default = Action("reflect", "reflect-all to sink", "sink")


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
