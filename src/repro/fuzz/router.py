"""Differential target: seeded random scripts against a bare router.

The parser loops ask "does hostile input escape?"; this target asks the
question a datapath refactor needs answered: *did anything observable
change?*  :func:`run_script` drives one ``SubfarmRouter`` — no hosts,
links or containment server, the script plays all of them — through a
seeded script of 1–4 concurrent flows: the seven verdict shapes over
TCP and UDP, outbound, inbound and inmate-to-inmate, SYN retransmits
and new incarnations, client / server / destination FINs and RSTs,
strays on every leg, malformed shims, nonce legs, clock jumps across
housekeeping, ``forget_inmate``, a second containment server added
mid-flow, verdict deadlines and a failover re-home.  It returns everything observable — wire bytes per
egress in emission order, router counters, the flow log, per-flow
accounting, ``flowtable.stats()`` — and :func:`digest` is its sha256
(``tests.golden.wire_digest``).

``tests/golden/router_scripts.json`` holds the digests of scripts
``0..N-1`` as recorded from the commit *before* a refactor;
``tests/test_router_differential.py`` holds the router to all of them
and ``python -m repro.fuzz --quick`` to the first hundred
(docs/HARDENING.md, "Router differential").

What the scripts stay clear of, so that a recording outlives the
changes it is there to check: a script spans under 600 virtual seconds
(no record is ever idle past ``flow_idle_timeout`` at a housekeeping
tick, like every tracked run); a containment server never completes
the handshake of a re-homed flow that has been resolved meanwhile (the
shim used to be re-injected on the dead flow); only a flow under a
REWRITE verdict gets a nonce leg (on a handed-off flow, a table miss
from the enforced destination used to be mistaken for the nonce leg's
return); and an evicted or retired flow is only ever restarted, never
answered.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import List, Optional

from repro.core.shim import ResponseShim
from repro.core.verdicts import Verdict
from repro.gateway.egress import Egress
from repro.gateway.failover import RouterResilience
from repro.gateway.flows import FlowLogEntry
from repro.gateway.nat import AddressPool, InboundMode, NatTable
from repro.gateway.router import SubfarmRouter
from repro.gateway.safety import SafetyFilter
from repro.net.addresses import IPv4Address, IPv4Network, MacAddress
from repro.net.flow import FiveTuple
from repro.net.packet import (ACK, FIN, PSH, RST, SYN, EthernetFrame,
                              IPv4Packet, TCPSegment, UDPDatagram)
from repro.sim.engine import Simulator

CS, CS2, SINK = (IPv4Address(f"10.3.0.{n}") for n in (1, 2, 9))
WORLD = [IPv4Address("203.0.113.80"), IPv4Address("203.0.113.81")]
REMOTE = IPv4Address("198.51.100.7")   # originator of inbound flows
CS_PORT = 6666
GATEWAY_MAC = MacAddress("02:00:00:00:00:fe")

#: The seven verdict shapes: (verdict, LIMIT rate, names a new target).
SHAPES = [(Verdict.FORWARD, None, False), (Verdict.LIMIT, 4000.0, False),
          (Verdict.DROP, None, False), (Verdict.REDIRECT, None, True),
          (Verdict.REFLECT, None, True), (Verdict.REWRITE, None, False),
          (Verdict.LIMIT | Verdict.REWRITE, 4000.0, False)]
#: What a script's endpoints put in a segment, strays included.
FLAGS = [ACK, ACK | PSH, ACK | PSH, ACK | PSH, PSH, FIN | ACK, RST | ACK,
         SYN]


def digest(state: dict) -> str:
    """sha256 of a :func:`run_script` state (bytes hex-encoded)."""
    canonical = json.dumps(state, sort_keys=True, default=bytes.hex)
    return hashlib.sha256(canonical.encode()).hexdigest()


class _Wire(Egress):
    """An egress that logs the wire bytes of what is sent through it."""

    def __init__(self, log: list) -> None:
        self.log = log

    def send(self, packet: IPv4Packet) -> None:
        self.log.append(packet.to_bytes())


class _Flow:
    """One flow as the script's endpoints know it."""

    def __init__(self, rng: random.Random, index: int, src, dst) -> None:
        self.udp = rng.random() < 0.3
        self.src, self.sport = src, 40000 + index
        self.dst, self.dport = dst, rng.choice([80, 25, 6667])
        self.verdict, self.rate, retarget = rng.choice(SHAPES)
        self.target = rng.choice([SINK, WORLD[1]]) if retarget else None
        self.isn, self.cs_isn, self.dst_isn = 1000 * (index + 1), 5000, 9000
        self.record = None
        self.nonce_open = False


class RouterScript:
    """The router's egress side plus the endpoints of one script."""

    def __init__(self, seed: int) -> None:
        self.rng = rng = random.Random(seed)
        self.sim = Simulator(seed=7)
        self.nat = NatTable(AddressPool([IPv4Network("10.100.0.0/16")]),
                            AddressPool([IPv4Network("198.18.0.0/24")]),
                            inbound_mode=InboundMode.FORWARD)
        self.logs = {"to_vlan": [], "to_service": [], "upstream": []}
        self.upstream_egress = _Wire(self.logs["upstream"])
        self._egresses = {}
        per_destination = 2 if rng.random() < 0.1 else 10 ** 9
        self.router = router = SubfarmRouter(
            sim=self.sim, name="fuzz", vlan_ids={2, 3, 4}, nat=self.nat,
            safety=SafetyFilter(10 ** 9, per_destination, 60.0),
            cs_ip=CS, cs_tcp_port=CS_PORT, cs_udp_port=CS_PORT,
            gateway_ip=IPv4Address("10.100.0.1"), dns_ip=None, egress=self)
        router.register_service(SINK)
        self.resilience = None
        if rng.random() < 0.2:
            self.resilience = router.resilience = RouterResilience(
                self.sim, router, "fuzz", lambda ip: True,
                verdict_deadline=20.0,
                pending_policy=rng.choice(["drop", "forward"]))
        self.inmates = {vlan: self.nat.bind(vlan) for vlan in (2, 3, 4)}
        self.flows: List[_Flow] = []
        # Every flow the router created or refused, in that order: its
        # record, or a refused flow's flow-log line (the router keeps
        # a record only while the flow holds keys).
        self.records: list = []
        self.clustered = False
        self.spent = 0.0

    # The router's egress side (what the Gateway is in a farm).
    def vlan_egress(self, vlan: int) -> _Wire:
        return self._egress(vlan, "to_vlan")

    def service_egress(self, ip: IPv4Address) -> _Wire:
        return self._egress(ip, "to_service")

    def _egress(self, target, log: str) -> _Wire:
        if target not in self._egresses:
            self._egresses[target] = _Wire(self.logs[log])
        return self._egresses[target]

    # ------------------------------------------------------------------
    def enter(self, src, sport, dst, dport, flags=None, seq=0, ack=0,
              payload=b"") -> None:
        """One packet into the router, through the entry point its
        source address lives behind; ``flags`` None makes a datagram."""
        transport = (UDPDatagram(sport, dport, payload) if flags is None
                     else TCPSegment(sport, dport, seq, ack, flags,
                                     payload=payload))
        packet = IPv4Packet(src, dst, transport)
        counters = self.router.counters
        created, refused = counters["flows_created"], counters["flows_refused"]
        self._dispatch(src, packet)
        if counters["flows_created"] > created:
            self.records.append(next(reversed(self.router._by_mux.values())))
        elif counters["flows_refused"] > refused:
            self.records.append(self.router.flow_log[-1])

    def _dispatch(self, src, packet: IPv4Packet) -> None:
        vlan = self.nat.vlan_for_internal(src)
        if vlan is not None:
            self.router.inmate_frame(EthernetFrame(
                MacAddress(0x020000000000 | vlan), GATEWAY_MAC, packet,
                vlan=vlan), vlan)
        elif src in (CS, CS2, SINK):
            self.router.service_frame(EthernetFrame(
                MacAddress("02:00:00:00:00:03"), GATEWAY_MAC, packet))
        else:
            self.router.upstream_packet(packet)

    def open(self, flow: Optional[_Flow] = None) -> None:
        """Start a flow (or a new incarnation of one on its tuple)."""
        rng = self.rng
        if flow is None:
            vlan, other = rng.sample([2, 3, 4], 2)
            if rng.random() < 0.25:   # inbound: the world dials an inmate
                src, dst = REMOTE, self.nat.global_for(vlan)
            else:
                src = self.inmates[vlan]
                dst = rng.choice(WORLD + [self.inmates[other], SINK])
            flow = _Flow(rng, len(self.flows), src, dst)
            self.flows.append(flow)
        else:
            flow.isn += 7000
        known = len(self.records)
        self.enter(flow.src, flow.sport, flow.dst, flow.dport,
                   None if flow.udp else SYN, flow.isn, payload=b"open"
                   if flow.udp else b"")
        if len(self.records) > known:
            record = self.records[-1]
            # A flow the safety filter refused has no legs to play.
            flow.record = (None if isinstance(record, FlowLogEntry)
                           else record)
            flow.nonce_open = False

    def client(self, flow: _Flow, flags: int, size: int) -> None:
        offset = self.rng.randrange(4000)
        # A bare SYN is a retransmit of the opening one.
        seq = flow.isn if flags == SYN else flow.isn + 1 + offset
        self.enter(flow.src, flow.sport, flow.dst, flow.dport,
                   None if flow.udp else flags, seq,
                   flow.cs_isn + 1 + offset, b"c" * size)

    def server(self, flow: _Flow, kind, size: int = 0) -> None:
        """The containment server's leg: ``kind`` is ``"synack"``,
        ``"verdict"`` (the response shim, ``size`` bytes of content
        behind it), ``"junk"`` (no shim at all) or stray TCP flags."""
        record = flow.record
        if kind == "synack" and record.decision \
                and record.cs_handshake_replay:
            return
        seq, body, flags = flow.cs_isn + 100, b"s" * size, kind
        if kind == "synack":
            seq, body, flags = flow.cs_isn, b"", SYN | ACK
        elif kind in ("verdict", "junk"):
            orig, flags = record.orig, ACK | PSH
            seq = flow.cs_isn + 1
            if kind == "verdict":
                resulting = orig if flow.target is None else FiveTuple(
                    orig.orig_ip, orig.orig_port, flow.target,
                    orig.resp_port, orig.proto)
                body = ResponseShim(resulting, flow.verdict, policy="fuzz",
                                    rate=flow.rate).to_bytes() + body
            else:
                body = b"\xff" * 80
        source = CS2 if self.rng.random() < 0.1 else record.cs_ip
        self.enter(source, CS_PORT, record.orig.orig_ip, record.mux_port,
                   None if flow.udp else flags, seq,
                   flow.isn + 1 + record.c2s_inj, body)

    def destination(self, flow: _Flow, flags: int, size: int) -> None:
        """The enforced destination answering — before the verdict, and
        now and then after it, whoever sits on the reversed originator
        tuple instead."""
        record, orig = flow.record, flow.record.orig
        if record.dst_ip is None or self.rng.random() < 0.1:
            src, sport, dst = orig.resp_ip, orig.resp_port, orig.orig_ip
        elif record.spoof_preserve:
            src, sport, dst = orig.resp_ip, record.dst_port, orig.orig_ip
        else:
            src, sport = record.dst_ip, record.dst_port
            dst = record.nat_global or orig.orig_ip
        seq = flow.dst_isn if flags == SYN | ACK else (
            flow.dst_isn + 1 + self.rng.randrange(4000))
        self.enter(src, sport, dst, orig.orig_port,
                   None if flow.udp else flags, seq, flow.isn + 1,
                   b"d" * size)

    def nonce(self, flow: _Flow, size: int) -> None:
        """The server's onward connection from the flow's nonce port,
        then traffic both ways over it."""
        record = flow.record
        if not (record.decision and record.decision.verdict
                & Verdict.REWRITE):
            return   # only a content-control server dials onward
        if not flow.nonce_open:
            flow.nonce_open = True
            self.enter(record.cs_ip, record.nonce_port, WORLD[0], 8080,
                       SYN, 300)
        elif self.rng.random() < 0.5:
            self.enter(record.cs_ip, record.nonce_port, WORLD[0], 8080,
                       ACK | PSH, 301, 701, b"n" * size)
        else:
            self.enter(WORLD[0], 8080,
                       record.nat_global or record.orig.orig_ip,
                       record.orig.orig_port, ACK | PSH, 701, 301,
                       b"w" * size)

    def advance(self, seconds: float) -> None:
        seconds = min(seconds, 550.0 - self.spent)
        self.spent += seconds
        self.sim.run(until=self.sim.now + seconds)

    # ------------------------------------------------------------------
    def expected(self, flow: _Flow) -> None:
        """The step the flow's protocol is waiting for."""
        record, rng = flow.record, self.rng
        phase = record.phase.value
        size = rng.choice([0, 1, 64, 512])
        if phase == "shim" and flow.udp:
            self.server(flow, "verdict", size)
        elif phase == "shim" and record.cs_isn is None:
            self.server(flow, "synack")
        elif phase == "shim" and not record.shim_injected:
            self.client(flow, ACK, 0)
        elif phase == "shim":
            self.server(flow, "verdict", size)
        elif phase == "handoff":
            self.destination(flow, SYN | ACK, 0)
        elif rng.random() < 0.5:
            self.client(flow, ACK | PSH, size)
        elif record.decision and record.decision.verdict & Verdict.REWRITE:
            self.server(flow, ACK | PSH, size)
        else:
            self.destination(flow, ACK | PSH, size)

    def step(self) -> None:
        rng = self.rng
        live = [flow for flow in self.flows if flow.record is not None]
        roll = rng.random()
        if not live or (roll < 0.06 and len(self.flows) < 4):
            return self.open()
        flow = rng.choice(live)
        size = rng.choice([0, 1, 64, 512])
        if self.router._by_mux.get(flow.record.mux_port) is not flow.record:
            # Evicted (forget_inmate, isolation) or retired (closed,
            # reset): all that is left to play on the tuple is a fresh
            # start.  (Answering it from
            # the far side instead would open the mirror-image inbound
            # flow, and two flows over one pair of tuples is a contest
            # no recording should pin.)
            self.open(flow)
        elif roll < 0.62:
            self.expected(flow)
        elif roll < 0.69:
            self.client(flow, rng.choice(FLAGS), size)
        elif roll < 0.75:
            self.server(flow, rng.choice(FLAGS + ["junk", "synack"]), size)
        elif roll < 0.81:
            self.destination(flow, rng.choice(FLAGS + [SYN | ACK]), size)
        elif roll < 0.85:
            self.nonce(flow, size)
        elif roll < 0.87:
            self.open(flow)
        elif roll < 0.95:
            self.advance(rng.choice([0.01, 0.5, 5.0, 40.0, 70.0, 130.0]))
        elif roll < 0.96:
            self.router.forget_inmate(rng.choice([2, 3, 4]))
        elif roll < 0.98:
            self.clustered = True
            self.router.add_containment_server(CS2)
        elif (self.resilience is not None and self.clustered
              and flow.record.phase.value == "shim"):
            self.resilience._rehome(flow.record, CS2 if flow.record.cs_ip
                                    == CS else CS)

    def state(self) -> dict:
        self.sim.run(until=self.sim.now + 30.0)   # flush shaped packets
        router = self.router
        return dict(self.logs, counters=dict(router.counters),
                    flow_log=[(e.timestamp, e.vlan, str(e.orig), e.verdict,
                               e.policy) for e in router.flow_log],
                    flows=[_accounting(r) for r in self.records],
                    table=router.flowtable.stats())


def _accounting(flow) -> tuple:
    """What :meth:`RouterScript.state` reports of one flow: a record,
    or a refused flow's flow-log line (refused, so nothing counted)."""
    if isinstance(flow, FlowLogEntry):
        return (str(flow.orig), "refused", flow.verdict, 0, 0, 0, 0,
                False, flow.timestamp)
    return (str(flow.orig), flow.phase.value, flow.verdict_name,
            flow.c2s_packets, flow.s2c_packets, flow.c2s_bytes,
            flow.s2c_bytes, flow.client_fin, flow.last_activity)


def run_script(seed: int) -> dict:
    script = RouterScript(seed)
    for _ in range(script.rng.randrange(30, 120)):
        script.step()
    return script.state()
