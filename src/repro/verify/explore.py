"""Exhaustive reachability over an isolation model.

The state space is small by construction — abstract flows are VLAN
*ranges* × two destination classes × two protocols × the port-atom
partition × content classes — so plain BFS enumerates every state a
flow can reach from creation to its terminal classification:

    flow.created ── safety ──> admitted | refused
    admitted ── verdict phase ──> normal | outage(window)
    normal ── policy cell ──> granted | contained | LEAK
    outage ── pending policy (× handshake state) ──> ...

Terminal classification (the paper's containment claim, made
checkable): a path reaches the world only through

* an explicit ``FORWARD``/``LIMIT`` policy grant (the grant table),
* a ``REWRITE`` grant (content-controlled: the containment server
  stays in the path — granted, flagged ``content-controlled``),

and anything else world-reaching is a **leak**:

* ``redirect-to-world`` — a REDIRECT whose target address lives
  outside the farm (the flow reaches the world at a destination the
  certificate's grant table never mentions);
* ``pending-forward`` — a fail-open pending policy resolving flows
  during a verdict outage window (UDP and handshake-complete TCP
  only; un-handshaken TCP cannot fail open — see
  :func:`repro.gateway.failover.fail_open_possible`);
* ``unexpected-grant`` — an explicit FORWARD/LIMIT outside the
  operator's allow-spec, when one was provided.

Every leak carries its full transition trace; the minimal
counterexample is the shortest trace (ties broken on
(subfarm, vlan, proto, port)) and names the leaking
(src-vlan, dst, proto) path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.verdicts import Verdict
from repro.gateway.failover import fail_open_possible
from repro.net.packet import PROTO_TCP
from repro.verify.model import DIRECTIONS, IsolationModel, PROTO_NAMES

__all__ = ["ExplorationResult", "explore"]


class ExplorationResult:
    """Everything the certificate needs from one exploration."""

    __slots__ = ("states_explored", "transitions", "grants", "leaks",
                 "counterexample")

    def __init__(self, states_explored: int, transitions: int,
                 grants: List[dict], leaks: List[dict],
                 counterexample: Optional[dict]) -> None:
        self.states_explored = states_explored
        self.transitions = transitions
        self.grants = grants
        self.leaks = leaks
        self.counterexample = counterexample


def _vlan_text(lo: Optional[int], hi: Optional[int]) -> str:
    if lo is None:
        return "*"
    return str(lo) if lo == hi else f"{lo}-{hi}"


def _allow_covers(allow: Optional[List[dict]], proto_name: str,
                  port_lo: int, port_hi: int, verdict: str) -> bool:
    """Does the operator's allow-spec cover this world grant?  ``allow``
    entries are ``{"proto", "port_lo", "port_hi", "verdicts"}`` with
    every field optional (missing = any)."""
    if allow is None:
        return True
    ops = set(verdict.split("|"))
    for entry in allow:
        if entry.get("proto") not in (None, proto_name):
            continue
        lo = entry.get("port_lo", 0)
        hi = entry.get("port_hi", 65535)
        if not (lo <= port_lo and port_hi <= hi):
            continue
        allowed = entry.get("verdicts")
        if allowed is not None and not (ops & set(allowed)):
            continue
        return True
    return False


def explore(model: IsolationModel,
            allow: Optional[List[dict]] = None) -> ExplorationResult:
    """BFS every abstract flow of ``model`` to a terminal state."""
    states: set = set()
    transitions = 0
    grants: Dict[tuple, dict] = {}
    leaks: List[dict] = []

    def visit(state: tuple) -> None:
        states.add(state)

    def leak(kind: str, base: dict, trace: List[dict],
             step: dict) -> None:
        leaks.append(dict(base, kind=kind, trace=trace + [step]))

    def grant(kind: str, base: dict, via: str) -> None:
        key = (base["subfarm"], base["vlan"], base["direction"],
               base["dst"], base["proto"], tuple(base["ports"]),
               base["content"], base["verdict"], via, kind)
        if key not in grants:
            grants[key] = dict(base, via=via, grant_kind=kind)

    for subfarm in model.subfarms:
        for vlan_lo, vlan_hi, policy_model in subfarm.assignments:
            vlan = _vlan_text(vlan_lo, vlan_hi)
            for direction in DIRECTIONS:
                for proto, proto_name in sorted(PROTO_NAMES.items()):
                    cells = policy_model.cells(direction, proto)
                    for cell in cells:
                        for dst in ("world", "farm"):
                            base = {
                                "subfarm": subfarm.name,
                                "vlan": vlan,
                                "direction": direction,
                                "dst": dst,
                                "proto": proto_name,
                                "ports": [cell.port_lo, cell.port_hi],
                                "content": cell.content,
                                "verdict": cell.verdict,
                                "policy": policy_model.description.get(
                                    "policy"),
                            }
                            trace = [{
                                "step": "flow.created",
                                "subfarm": subfarm.name,
                                "src_vlan": vlan, "dst": dst,
                                "direction": direction,
                                "proto": proto_name,
                                "ports": [cell.port_lo, cell.port_hi],
                            }]
                            root = (subfarm.name, vlan, direction, dst,
                                    proto, cell.port_lo, cell.port_hi,
                                    cell.content)
                            visit(root + ("new",))
                            # Safety filter: both admission edges exist.
                            transitions += 2
                            visit(root + ("refused",))  # terminal, contained
                            visit(root + ("admitted",))
                            trace = trace + [{"step": "safety.admit",
                                              "bounds": subfarm.safety}]
                            # --- normal phase: the policy decides ----
                            transitions += 1
                            visit(root + ("verdict", "normal"))
                            step = {
                                "step": "verdict.applied",
                                "phase": "normal",
                                "policy": base["policy"],
                                "verdict": cell.verdict,
                                "content": cell.content,
                            }
                            verdict = Verdict.from_label(cell.verdict)
                            world_reaching = (
                                dst == "world" or direction == "inbound")
                            if verdict.grants_world:
                                if world_reaching:
                                    emit = {"step": "emit.upstream",
                                            "dst": dst}
                                    if not _allow_covers(
                                            allow, proto_name,
                                            cell.port_lo, cell.port_hi,
                                            cell.verdict):
                                        leak("unexpected-grant", base,
                                             trace + [step], emit)
                                    else:
                                        grant(
                                            "inbound-response"
                                            if direction == "inbound"
                                            and dst != "world"
                                            else "explicit",
                                            base, via="policy")
                                visit(root + ("terminal", "granted"))
                            elif verdict.is_content_control:
                                if world_reaching:
                                    grant("content-controlled", base,
                                          via="policy")
                                visit(root + ("terminal", "rewritten"))
                            elif verdict & Verdict.REDIRECT:
                                if cell.target_class == "world":
                                    leak("redirect-to-world",
                                         dict(base, target=cell.target),
                                         trace + [step],
                                         {"step": "emit.upstream",
                                          "target": cell.target})
                                visit(root + ("terminal", "redirected"))
                            else:  # DROP / REFLECT stay in the farm
                                visit(root + ("terminal", "contained"))
                    # --- outage overlays: pending policy decides -----
                    for index, window in enumerate(subfarm.overlays):
                        for dst in ("world", "farm"):
                            base = {
                                "subfarm": subfarm.name,
                                "vlan": vlan,
                                "direction": direction,
                                "dst": dst,
                                "proto": proto_name,
                                "ports": [0, 65535],
                                "content": "*",
                                "verdict": "FORWARD",
                                "policy": "fail-open",
                            }
                            handshakes = (("new", "established")
                                          if proto == PROTO_TCP
                                          else ("datagram",))
                            for handshake in handshakes:
                                transitions += 1
                                state = (subfarm.name, vlan,
                                         direction, dst, proto,
                                         "outage", index, handshake)
                                visit(state)
                                if subfarm.pending_policy != "forward":
                                    visit(state + ("contained",))
                                    continue
                                can_open = fail_open_possible(
                                    proto,
                                    handshake != "new")
                                if not can_open or dst != "world":
                                    visit(state + ("contained",))
                                    continue
                                trace = [
                                    {"step": "flow.created",
                                     "subfarm": subfarm.name,
                                     "src_vlan": vlan, "dst": dst,
                                     "direction": direction,
                                     "proto": proto_name,
                                     "ports": [0, 65535]},
                                    {"step": "fault.window",
                                     "kind": window.get("kind"),
                                     "start": window.get("start"),
                                     "end": window.get("end")},
                                    {"step": "failover.pending",
                                     "pending_policy": "forward",
                                     "handshake": handshake,
                                     "verdict": "FORWARD"},
                                ]
                                leak("pending-forward",
                                     dict(base, handshake=handshake,
                                          window=dict(window)),
                                     trace,
                                     {"step": "emit.upstream",
                                      "dst": dst})
                                visit(state + ("leaked",))

    ordered_grants = sorted(
        grants.values(),
        key=lambda g: (g["subfarm"], g["vlan"], g["direction"], g["dst"],
                       g["proto"], g["ports"][0], g["ports"][1],
                       g["content"], g["verdict"]))
    counterexample = None
    if leaks:
        best = min(
            leaks,
            key=lambda l: (len(l["trace"]), l["subfarm"], l["vlan"],
                           l["proto"], l["ports"][0]))
        counterexample = {
            "kind": best["kind"],
            "path": {
                "subfarm": best["subfarm"],
                "src_vlan": best["vlan"],
                "dst": best.get("target") or best["dst"],
                "proto": best["proto"],
                "ports": best["ports"],
            },
            "trace": best["trace"],
        }
    return ExplorationResult(len(states), transitions, ordered_grants,
                             leaks, counterexample)
