"""The containment server (§5.4, §6.2).

Both a machine and an application server: it runs on a host inside the
subfarm, listens on one fixed TCP and UDP port, and — through the shim
protocol — issues the containment verdict for every flow entering or
leaving the inmate network.  For REWRITE verdicts it stays in the path
as a transparent application-layer proxy, optionally opening an onward
connection through its per-flow nonce port.

Beyond flow verdicts, the server also controls inmate life-cycles: it
witnesses all network activity, so its :class:`~repro.core.triggers.
TriggerEngine` can react to the presence — and absence — of network
events by reverting, rebooting, or terminating inmates through the
inmate controller on the management network.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.policy import (
    ContainmentPolicy,
    PolicyContext,
    PolicyMap,
    Rewriter,
)
from repro.core.shim import (
    REQUEST_SHIM_LEN,
    RequestShim,
    ResponseShim,
)
from repro.core.verdicts import ContainmentDecision
from repro.net.addresses import IPv4Address
from repro.net.errors import ParseError
from repro.net.flow import FiveTuple
from repro.net.host import Host
from repro.net.packet import IPv4Packet, PROTO_UDP, UDPDatagram
from repro.net.tcp import TcpConnection, TcpState
from repro.obs.telemetry import tally
from repro.sim.engine import Simulator

LifecycleCallback = Callable[[str, int], None]

CS_DEFAULT_PORT = 6666


class VerdictRecord:
    """One verdict issued, kept for reporting and verification."""

    __slots__ = ("timestamp", "vlan", "flow", "decision")

    def __init__(self, timestamp: float, vlan: int, flow: FiveTuple,
                 decision: ContainmentDecision) -> None:
        self.timestamp = timestamp
        self.vlan = vlan
        self.flow = flow
        self.decision = decision


def _unserved(policy: ContainmentPolicy,
              error: KeyError) -> ContainmentDecision:
    """What the server issues when ``policy`` reflects to a service the
    subfarm lacks (:meth:`PolicyContext.service`'s ``KeyError``): a DROP
    that names it.  The flow reaches no one, as its certificate cell (a
    REFLECT to UNBOUND) says, and the run goes on.  Any other
    ``KeyError`` is a bug of the policy's and propagates."""
    service = getattr(error, "service", None)
    if service is None:
        raise error
    return ContainmentDecision.drop(
        policy=policy.policy_name,
        annotation=f"missing service {service!r}")


class FlowProxy:
    """The containment server's handle a :class:`Rewriter` drives: two
    plain TCP connections, the inmate's to the server and, once
    :meth:`connect_out` opened it, the server's onward one through the
    flow's nonce port.  A write or close made before the onward
    handshake completes is held by that connection until it does; a
    held write counts as proxied when the handshake completes, and
    never if it is refused."""

    def __init__(self, server: "ContainmentServer",
                 client_conn: TcpConnection, ctx: PolicyContext,
                 rewriter: Rewriter) -> None:
        self._server = server
        self._client = client_conn
        self._ctx = ctx
        self._rewriter = rewriter
        self._upstream: Optional[TcpConnection] = None
        self._held = 0   # bytes written before the onward handshake

    @property
    def context(self) -> PolicyContext:
        return self._ctx

    def send_to_client(self, data: bytes) -> None:
        if self._client.is_open or self._client.state is TcpState.SYN_RCVD:
            self._client.send(data)
            self._server.bytes_to_client += len(data)

    def send_to_server(self, data: bytes) -> None:
        upstream = self._upstream
        if upstream is None:
            raise RuntimeError("rewriter never called connect_out()")
        if (upstream.state is TcpState.CLOSED
                and upstream.opened_at is not None):
            return  # refused or reset: on_server_close has run
        upstream.send(data)
        if upstream.established_at is None:
            self._held += len(data)
        else:
            self._server.bytes_to_server += len(data)

    def connect_out(self, ip: Optional[IPv4Address] = None,
                    port: Optional[int] = None) -> None:
        """Open the onward connection through the nonce port."""
        if self._upstream is not None:
            return
        target_ip = ip if ip is not None else self._ctx.flow.resp_ip
        target_port = port if port is not None else self._ctx.flow.resp_port
        host = self._server.host
        conn = host.tcp.connect(target_ip, target_port,
                                local_port=self._ctx.nonce_port)
        self._upstream = conn
        conn.on_established = self._count_held
        conn.on_data = lambda c, d: self._rewriter.on_server_data(self, d)
        conn.on_remote_close = lambda c: self._rewriter.on_server_close(self)
        conn.on_reset = lambda c: self._rewriter.on_server_close(self)

    def _count_held(self, conn: TcpConnection) -> None:
        self._server.bytes_to_server += self._held
        self._held = 0

    def close_client(self) -> None:
        self._client.close()

    def close_server(self) -> None:
        if self._upstream is not None:
            self._upstream.close()


class _CsConnection:
    """Server-side state machine for one contained TCP flow."""

    def __init__(self, server: "ContainmentServer",
                 conn: TcpConnection) -> None:
        self.server = server
        self.conn = conn
        self.buffer = bytearray()
        self.shim: Optional[RequestShim] = None
        self.policy: Optional[ContainmentPolicy] = None
        self.ctx: Optional[PolicyContext] = None
        self.decision: Optional[ContainmentDecision] = None
        self.rewriter: Optional[Rewriter] = None
        self.proxy: Optional[FlowProxy] = None
        self.shim_seen_at: Optional[float] = None

        conn.on_data = self._on_data
        conn.on_remote_close = self._on_remote_close
        conn.on_reset = self._on_reset
        conn.on_closed = self._on_reset

    # ------------------------------------------------------------------
    def _on_data(self, conn: TcpConnection, data: bytes) -> None:
        # The malice barrier also guards the server's own ingest: a
        # ParseError from the shim parser — or from any protocol parser
        # a policy/rewriter runs over inmate content — aborts only this
        # flow's leg, never the server's event loop.
        try:
            self._on_data_body(conn, data)
        except ParseError as error:
            barrier = self.server.barrier
            if barrier is not None:
                barrier.record(error, data=bytes(data))
            conn.abort()
        except KeyError as error:
            self.server.schedule_issue(self, _unserved(self.policy, error))

    def _on_data_body(self, conn: TcpConnection, data: bytes) -> None:
        if self.decision is not None and self.rewriter is not None:
            self.rewriter.on_client_data(self.proxy, data)
            return
        self.buffer.extend(data)
        if self.shim is None:
            if len(self.buffer) < REQUEST_SHIM_LEN:
                return
            blob = bytes(self.buffer[:REQUEST_SHIM_LEN])
            del self.buffer[:REQUEST_SHIM_LEN]
            # A malformed request shim propagates to _on_data's
            # barrier, which aborts this connection.
            self.shim = RequestShim.from_bytes(blob)
            self.shim_seen_at = self.server.sim.now
            self.policy, self.ctx = self.server._resolve(self.shim)
            decision = self.policy.decide(self.ctx)
            if decision is not None:
                self.server.schedule_issue(self, decision)
                return
        if self.shim is not None and self.decision is None and self.buffer:
            decision = self.policy.decide_content(self.ctx, bytes(self.buffer))
            if decision is not None:
                self.server.schedule_issue(self, decision)

    def _issue(self, decision: ContainmentDecision) -> None:
        if self.decision is not None:
            return  # duplicate scheduling race
        if self.conn.fully_closed:
            return  # client vanished while queued
        self.decision = decision
        assert self.shim is not None and self.ctx is not None
        self.server._record(self.shim, decision,
                            received_at=self.shim_seen_at)
        response = ResponseShim.from_decision(self.shim.flow, decision)
        self.conn.send(response.to_bytes())
        if decision.verdict.is_content_control:
            self.rewriter = self.policy.make_rewriter(self.ctx)
            self.proxy = FlowProxy(self.server, self.conn, self.ctx,
                                   self.rewriter)
            self.rewriter.on_open(self.proxy)
            if self.buffer:
                pending = bytes(self.buffer)
                self.buffer.clear()
                self.rewriter.on_client_data(self.proxy, pending)
        else:
            # An endpoint verdict: the gateway takes this leg off the
            # flow's path as the response arrives and resets it, so
            # nothing this end would send (an ACK of the request behind
            # the shim, a FIN) reaches anyone.  Send the response and
            # go silent until that RST.
            self.conn.abandon()

    def _on_remote_close(self, conn: TcpConnection) -> None:
        if self.rewriter is not None:
            self.rewriter.on_client_close(self.proxy)
        else:
            conn.close()

    def _on_reset(self, conn: TcpConnection) -> None:
        if self.proxy is not None:
            self.proxy.close_server()


class ContainmentServer:
    """The application server issuing containment verdicts."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        policy_map: PolicyMap,
        services: Optional[Dict[str, Tuple[IPv4Address, int]]] = None,
        tcp_port: int = CS_DEFAULT_PORT,
        udp_port: int = CS_DEFAULT_PORT,
        lifecycle: Optional[LifecycleCallback] = None,
        subfarm: object = None,
        service_time: float = 0.0,
    ) -> None:
        self.sim = sim
        self.host = host
        self.policy_map = policy_map
        # Kept by reference: subfarms register services after server
        # creation and policies must see them.
        self.services = services if services is not None else {}
        self.tcp_port = tcp_port
        self.udp_port = udp_port
        self.lifecycle = lifecycle
        self.subfarm = subfarm

        self.verdict_log: List[VerdictRecord] = []
        self.verdict_counts: Dict[str, int] = {}
        # REWRITE bytes the proxy relayed onward and back.
        self.bytes_to_server = 0
        self.bytes_to_client = 0
        self.trigger_engine = None  # set via attach_triggers()
        # Fault-injection seam: a ServerFaultState installed by the
        # farm's FaultInjector (None in fault-free farms).
        self.fault_state = None
        # Malice-barrier seam: the subfarm points this at the router's
        # barrier so gateway and server drops share one ledger.
        self.barrier = None
        # Decision journal (NULL_JOURNAL unless the farm attached one).
        self.journal = sim.journal

        tel = sim.telemetry
        self._m_verdicts = tel.counter(
            "cs.verdicts", "Verdicts issued, by type")
        self._h_latency = tel.histogram(
            "cs.verdict.latency",
            "Virtual seconds from shim receipt to verdict"
        ).bind(server=host.name)
        tel.counter(
            "cs.proxy.bytes_to_server", "REWRITE bytes proxied onward"
        ).register(lambda: self.bytes_to_server, server=host.name)
        tel.counter(
            "cs.proxy.bytes_to_client", "REWRITE bytes proxied back"
        ).register(lambda: self.bytes_to_client, server=host.name)

        # Processing model for scalability studies (§7.2): each
        # verdict occupies the (single-CPU) server for service_time
        # seconds; concurrent flows queue.
        self.service_time = service_time
        self._busy_until = 0.0
        # Verdicts that queued, and their delay in total and at most.
        self.queued = 0
        self.queue_delay_total = 0.0
        self.queue_delay_max = 0.0

        # UDP decisions by the request shim's nonce port (the gateway's
        # per-record slot), each with the flow it was made for.  A
        # failover resend or a REWRITE flow's later datagram names the
        # same flow on the same slot and reuses its decision; the next
        # flow on the slot (a new tuple, or this one re-created after an
        # eviction) is asked afresh and replaces it, so the cache is
        # bounded by the slot space, as the gateway's records are.  Left
        # open: the same tuple landing on the same slot after the
        # gateway's allocator has wrapped reuses the old decision.
        self._udp_decisions: Dict[int, Tuple[FiveTuple,
                                             ContainmentDecision]] = {}

        host.tcp.listen(tcp_port, self._accept)
        host.udp.bind(udp_port, self._udp_datagram)

    # ------------------------------------------------------------------
    def attach_triggers(self, engine) -> None:
        """Wire an activity-trigger engine (see repro.core.triggers)."""
        self.trigger_engine = engine

    def _accept(self, conn: TcpConnection) -> None:
        _CsConnection(self, conn)

    def responsive(self) -> bool:
        """Management-network health check: would this server answer a
        probe right now?  (The resilience layer's health probe calls this.)"""
        fault = self.fault_state
        return fault is None or fault.responsive(self.sim.now)

    def schedule_issue(self, cs_conn: _CsConnection,
                       decision: ContainmentDecision) -> None:
        """Issue a verdict, honouring the processing-time model."""
        extra = 0.0
        fault = self.fault_state
        if fault is not None:
            if fault.crashed:
                return  # a crashed server issues nothing
            now = self.sim.now
            if fault.hung(now):
                # Held until the hang window closes, then re-scheduled
                # — the late-verdict case the router must tolerate.
                fault.hold(cs_conn, decision)
                return
            extra = fault.extra_service_time(now)
        if self.service_time <= 0.0 and extra <= 0.0:
            cs_conn._issue(decision)
            return
        now = self.sim.now
        start = max(now, self._busy_until)
        self._busy_until = start + self.service_time + extra
        delay = self._busy_until - now
        self.queued += 1
        self.queue_delay_total += delay
        self.queue_delay_max = max(self.queue_delay_max, delay)
        self.sim.schedule(delay, cs_conn._issue, decision,
                          label="cs-service")

    def _resolve(self, shim: RequestShim) -> Tuple[ContainmentPolicy,
                                                   PolicyContext]:
        policy = self.policy_map.resolve(shim.vlan_id)
        if not policy.services:
            policy.services = self.services
        ctx = PolicyContext(
            flow=shim.flow,
            vlan_id=shim.vlan_id,
            nonce_port=shim.nonce_port,
            now=self.sim.now,
            services=self.services,
            subfarm=self.subfarm,
            # Inmates live in RFC 1918 space behind the NAT; flows
            # originated outside carry a global source address.
            inmate_is_originator=shim.flow.orig_ip.is_rfc1918(),
        )
        return policy, ctx

    def _record(self, shim: RequestShim,
                decision: ContainmentDecision,
                received_at: Optional[float] = None) -> None:
        record = VerdictRecord(self.sim.now, shim.vlan_id, shim.flow, decision)
        self.verdict_log.append(record)
        key = decision.verdict.label
        tally(self.verdict_counts, key, self._m_verdicts,
              server=self.host.name, verdict=key)
        if received_at is not None:
            self._h_latency.observe(self.sim.now - received_at)
        if self.journal.enabled:
            # The router bound the gateway-side flow id to this alias
            # when it admitted the flow; resolving it stitches the CS
            # verdict into the same causal chain.  A flow nobody bound
            # (or whose binding aged out) goes by its rendered tuple.
            engine = self.trigger_engine
            self.journal.record(
                "verdict.issued",
                flow=(self.journal.flow_for(
                    (shim.vlan_id, shim.flow.as_key()))
                    or f"vlan{shim.vlan_id}/{shim.flow}"),
                vlan=shim.vlan_id, server=self.host.name,
                verdict=key, policy=decision.policy,
                trigger_rules=(len(engine._rules)
                               if engine is not None else 0),
                trigger_suspended=(bool(engine._suspended)
                                   if engine is not None else False))
        if self.trigger_engine is not None:
            self.trigger_engine.flow_event(shim.vlan_id, self.sim.now,
                                           shim.flow)

    # ------------------------------------------------------------------
    # UDP containment
    # ------------------------------------------------------------------
    def _udp_datagram(self, host: Host, packet: IPv4Packet,
                      datagram: UDPDatagram) -> None:
        try:
            self._udp_datagram_body(host, packet, datagram)
        except ParseError as error:
            barrier = self.barrier
            if barrier is not None:
                barrier.record(error, data=bytes(datagram.payload))

    def _udp_datagram_body(self, host: Host, packet: IPv4Packet,
                           datagram: UDPDatagram) -> None:
        fault = self.fault_state
        if fault is not None and not fault.responsive(self.sim.now):
            return  # crashed or hung: datagrams vanish
        payload = datagram.payload
        if len(payload) < REQUEST_SHIM_LEN:
            return
        # A malformed shim propagates to _udp_datagram's barrier.
        shim = RequestShim.from_bytes(payload[:REQUEST_SHIM_LEN],
                                      proto=PROTO_UDP)
        content = payload[REQUEST_SHIM_LEN:]
        policy, ctx = self._resolve(shim)

        cached = self._udp_decisions.get(shim.nonce_port)
        first = cached is None or cached[0] != shim.flow
        if first:
            try:
                decision = policy.decide(ctx)
                if decision is None:
                    decision = policy.decide_datagram(ctx, content)
            except KeyError as error:
                decision = _unserved(policy, error)
            self._udp_decisions[shim.nonce_port] = (shim.flow, decision)
            self._record(shim, decision)
        else:
            decision = cached[1]

        response = ResponseShim.from_decision(shim.flow, decision).to_bytes()
        if decision.verdict.is_content_control:
            reply = policy.rewrite_datagram(ctx, content)
            if reply:
                response += reply
            elif not first:
                return  # nothing to say for this datagram
        host.udp.sendto(response, packet.src, datagram.sport,
                        src_port=self.udp_port)

    # ------------------------------------------------------------------
    def issue_lifecycle(self, action: str, vlan: int) -> None:
        """Send a life-cycle action to the inmate controller."""
        if self.lifecycle is not None:
            self.lifecycle(action, vlan)

    def __repr__(self) -> str:
        return (
            f"<ContainmentServer {self.host.name} verdicts="
            f"{sum(self.verdict_counts.values())}>"
        )
