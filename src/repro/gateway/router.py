"""The per-subfarm packet router (§5.1, §6.1).

One router instance handles a disjoint set of VLAN IDs — a *subfarm*
(Figure 3).  The router is pure mechanism: it couples every flow to
the subfarm's containment server through the shim protocol, then
enforces whatever verdict comes back.  Policy lives entirely in the
containment server.

TCP containment walk-through (Figure 5, REWRITE case):

1. Inmate SYN to target ``T`` arrives on the trunk.  The router
   creates a :class:`~repro.gateway.flows.FlowRecord`, rewrites the
   destination to the containment server's fixed address/port (and the
   source port to a per-flow mux port so concurrent flows cannot
   collide on the server), and forwards it.  The handshake therefore
   physically completes between the inmate's stack and the containment
   server's — with the router translating addresses so the inmate
   believes it is talking to ``T``.
2. On the inmate's final ACK the router injects the 24-byte request
   shim into the stream (``SEQ += |REQ SHIM|`` for everything after).
3. The containment server replies with the response shim, which the
   router strips from the return stream (``SEQ -= |RSP SHIM|``),
   learning the verdict.
4. REWRITE flows stay coupled to the server (content control); the
   server may open an onward connection through its nonce port, which
   the router NATs to the inmate's global address so the real target
   sees the inmate.  All other verdicts take the server off the path
   and abort its leg; a TCP DROP ends there.  The rest are *handed
   off*: the router replays the original SYN (plus any buffered
   payload) toward the enforced destination and translates sequence
   numbers between the two server ISNs for the rest of the flow's life.

Division of labour (docs/PERFORMANCE.md, "The flow table and the
controller"): every relayed packet is rewritten by data — each leg of a
flow's life is a :class:`~repro.gateway.flowtable.Row` of the flow
table, the coupled SHIM-phase legs from the flow's first packet on, and
``flowtable.apply`` is the only code that translates one.  At the
verdict the rows are installed as
:class:`~repro.gateway.flowtable.FlowEntry` rules for the rest of the
flow's life and packets never reach the controller; before it (and for
a SYN retransmit or an RST) the row hands the packet to the
controller's handler for its leg, which does the bookkeeping — buffer
for the handoff replay, strip the shim, learn ISNs — and runs the
packet through the row itself.  What is written out as code here is what
decides or changes flow state: admission and the safety filter, the
shim handshake, the handoff, eviction and housekeeping.

One flow key, one probe (docs/PERFORMANCE.md, "The gateway kernel"):
``_lookup`` computes the directed int tuple ``(src ip, sport, dst ip,
dport, proto)`` once per packet and probes the flow table with it,
once; records carry their keys in the same form, so nothing on a
per-packet path builds a ``FiveTuple`` or hashes an address object.
Packets leave through resolved :mod:`~repro.gateway.egress` objects:
rows hold theirs from compile time, the controller looks its own up.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Set

from repro.gateway import admission, coupling, handoff, housekeeping
from repro.gateway.barrier import MaliceBarrier
from repro.gateway.bridge import LearningBridge
from repro.gateway.egress import Shaped, ShimLink
from repro.gateway.flows import LIVE_PHASES, FlowLogEntry, FlowRecord
from repro.gateway.flowtable import (
    EMIT_CS,
    EMIT_UPSTREAM,
    EMIT_VLAN,
    FlowTable,
    Row,
    apply,
)
from repro.gateway.nat import NatTable
from repro.gateway.safety import SafetyFilter
from repro.net.addresses import IPv4Address
from repro.net.capture import PacketTrace
from repro.net.errors import ParseError
from repro.net.packet import (
    EthernetFrame,
    IPv4Packet,
    PROTO_TCP,
    PROTO_UDP,
)
from repro.net.wirebatch import retired
from repro.services.dhcp import DHCP_SERVER_PORT
from repro.sim.engine import Simulator


#: ``SubfarmRouter.counters`` keys and the counter that reads each.
COUNTER_METRICS = (
    ("flows_created", "router.flows.created", "Flows entering containment"),
    ("flows_refused", "router.flows.refused",
     "Flows refused by the safety filter"),
    ("shims_injected", "router.shims.injected",
     "Request shims sent to the CS"),
    ("shims_stripped", "router.shims.stripped",
     "Response shims parsed and removed"),
    ("handoffs", "router.handoffs", "Flows handed off to their destination"),
    ("packets_relayed", "router.packets.relayed",
     "Packets relayed through the router"),
    ("dhcp_leases", "service.dhcp.leases", "DHCP leases acknowledged"),
)


class SubfarmRouter:
    """Packet forwarding plus containment mechanism for one subfarm."""

    MUX_PORT_BASE = 20000
    NONCE_PORT_BASE = 40000
    PORT_SLOTS = 20000

    def __init__(
        self,
        sim: Simulator,
        name: str,
        vlan_ids: Set[int],
        nat: NatTable,
        safety: SafetyFilter,
        cs_ip: IPv4Address,
        cs_tcp_port: int,
        cs_udp_port: int,
        gateway_ip: IPv4Address,
        dns_ip: Optional[IPv4Address],
        egress,
        control_pool=None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.vlan_ids = set(vlan_ids)
        self.nat = nat
        self.safety = safety
        self.cs_ip = IPv4Address(cs_ip)
        # Every containment server, primary first (§7.2's cluster:
        # Subfarm.add_containment_servers); _select_cs picks from it.
        self._cs_list = [self.cs_ip]
        self.cs_tcp_port = cs_tcp_port
        self.cs_udp_port = cs_udp_port
        self.gateway_ip = IPv4Address(gateway_ip)
        self.dns_ip = IPv4Address(dns_ip) if dns_ip is not None else None
        # The gateway's egress side (the Gateway itself, or a stand-in
        # with the same vlan_egress / service_egress / upstream_egress
        # names): one object per target.
        self.egress = egress
        # Shim link per containment server, keyed on the address's
        # 32-bit value (also the "is this a containment server" test).
        self._cs_links: Dict[int, ShimLink] = {}
        self._link_cs(self.cs_ip)
        self.control_pool = control_pool

        # Fault-injection and resilience seams.  Both stay None unless
        # the farm installs them (non-empty FaultPlan / configured
        # verdict deadline), in which case every packet crossing the
        # shim link consults the fault view and every SHIM-phase flow
        # runs under a verdict deadline.  With both None the packet
        # path is byte-identical to a build without these layers.
        self.shim_link_faults = None
        self.resilience = None

        # The malice barrier is always on: with no hostile input it
        # costs one attribute read per ingest (its try/except is free
        # when nothing raises, and its telemetry cells bind lazily), so
        # a clean run stays byte-identical to a build without it.
        self.barrier = MaliceBarrier(sim, name, telemetry=sim.telemetry)

        self.telemetry = sim.telemetry
        # Decision journal (repro.obs.journal): NULL_JOURNAL unless the
        # farm attached a live one before building this router.  All
        # journal call sites are flow-level (never per-packet) and
        # guarded on .enabled, so a disabled journal costs one
        # attribute read on the slow path only.
        self.journal = sim.journal
        self.bridge = LearningBridge(telemetry=self.telemetry, subfarm=name)
        # The inmate-side trace stores nothing: its readers stream it,
        # and one that wants stored frames sets store = True before
        # the run.
        self.trace = PacketTrace(f"{name}-inmate-side", store=False)

        # Infra services reachable without containment (the restricted
        # broadcast domain of §5.3) plus all registered service hosts.
        # Trusted addresses are held as ints: the per-frame membership
        # test must not pay IPv4Address.__hash__/__eq__.
        self.trusted_ips: Set[int] = set()
        self.service_ips: Set[int] = set()
        if self.dns_ip is not None:
            self.trusted_ips.add(self.dns_ip.value)

        # Records that still hold rows — the router's live set, and all
        # it holds of any flow; ``flow_log`` is its history — by mux
        # port (creation order), and by the nonce port their server's
        # onward leg starts from.
        self._by_mux: Dict[int, FlowRecord] = {}
        self._by_nonce: Dict[int, FlowRecord] = {}
        self._next_slot = 0

        # The compiled forwarding path of §4, realised as a
        # match-action flow table and the router's one per-packet
        # lookup structure: every flow key a live record answers to is
        # bound to a row naming the flow and the leg, and post-verdict
        # flows get FlowEntry rules installed under the keys their
        # packets arrive on, so the steady state pays one dict hit and
        # one executor call and never enters the controller.
        self.flowtable = FlowTable(name, telemetry=self.telemetry)
        # Alias of the table's row dict: no Python-level
        # __hash__/__eq__, no extra attribute hop.
        self._table: Dict[tuple, Row] = self.flowtable.entries
        # The controller's handler per leg (flowtable.LEG_*).  The
        # nonce leg has no state to keep: its handler is the executor.
        self._legs = (partial(coupling.from_originator, self),
                      partial(handoff.from_return, self),
                      partial(coupling.from_cs, self), partial(apply, self))
        # What the executor calls when the packet it emitted finished
        # its flow (flowtable.CLOSE_RETIRE).
        self._retire = partial(housekeeping.retire, self)

        # Per-service NAT for outbound service traffic (control /24),
        # both ways keyed on the address's 32-bit value.
        self._service_nat: Dict[int, IPv4Address] = {}
        self._service_nat_rev: Dict[int, IPv4Address] = {}
        # Global address (int) -> router: the gateway's upstream demux
        # map once publish_globals() has been handed it; until then a
        # private one, so a standalone router needs no special case.
        self._demux: Dict[int, "SubfarmRouter"] = {}

        # Housekeeping: the mux/nonce ports and rows of every record
        # idle past flow_idle_timeout — live, dropped or aborted — are
        # reclaimed periodically so day-scale runs never exhaust the
        # port space.  The sweeper arms itself while records hold rows
        # and goes quiet with them (keeping the event queue drainable).
        self.housekeeping_interval = 300.0
        self.flow_idle_timeout = 600.0
        self._housekeeping_armed = False

        self.flow_log: List[FlowLogEntry] = []
        self.counters = {key: 0 for key, _, _ in COUNTER_METRICS}

        # Verdicts applied, by (vlan, verdict label, "tcp" | "udp").
        self.verdict_counts: Dict[tuple, int] = {}

        # Telemetry: reads of the counters dict and of the verdict
        # counts (each combination registers when first applied), the
        # shim round-trip histogram, and per-flow trace state keyed by
        # mux port (cleaned up on eviction).
        tel = self.telemetry
        for key, metric, help in COUNTER_METRICS:
            tel.counter(metric, help).register(
                partial(self.counters.__getitem__, key), subfarm=name)
        self._m_verdicts = tel.counter(
            "router.flows.verdict",
            "Containment verdicts applied, by verdict and protocol")
        self._h_shim_rtt = tel.histogram(
            "router.shim.rtt",
            "Virtual seconds from flow creation to verdict"
        ).bind(subfarm=name)

    # ------------------------------------------------------------------
    # Public queries
    # ------------------------------------------------------------------
    def _live_flows(self) -> List[FlowRecord]:
        """Records still coupled or forwarding, oldest first.

        Read off ``_by_mux``, which holds exactly the records not yet
        released, in creation order — so it costs what holds rows, not
        everything the deployment ever saw.  A list, because callers
        evict while they walk it.
        """
        return [record for record in self._by_mux.values()
                if record.phase in LIVE_PHASES]

    def active_flow_count(self) -> int:
        return len(self._live_flows())

    def register_service(self, ip: IPv4Address, trusted: bool = False) -> None:
        ip = IPv4Address(ip)
        self.service_ips.add(ip.value)
        if trusted:
            self.trusted_ips.add(ip.value)
        if ip.value in self._cs_links:
            self._link_cs(ip)  # its gateway port exists now

    def add_containment_server(self, ip: IPv4Address) -> None:
        """Register an additional containment server (cluster mode)."""
        ip = IPv4Address(ip)
        if ip.value not in self._cs_links:
            self._link_cs(ip)
            self._cs_list.append(ip)
            # Any server of the cluster may come to answer a coupled
            # flow's mux port (failover re-homes pending flows).
            for record in self._by_mux.values():
                if coupling.cs_key(self, record, record.cs_ip) in self._table:
                    row = coupling.cs_row(self, record, ip)
                    self.flowtable.bind(row)
                    if record.coupled is not None:
                        record.coupled.append(row)

    def _select_cs(self, vlan: int) -> IPv4Address:
        """The one server selector.  Sticky: the same server always
        handles the same inmate (§7.2's suggested policy) — the next
        one round the list while the resilience layer has it marked
        down, the sticky one again when every server is."""
        servers = self._cs_list
        base = vlan % len(servers)
        if self.resilience is not None:
            for ip in servers[base:] + servers[:base]:
                if not self.resilience.is_down(ip):
                    return ip
        return servers[base]

    # ------------------------------------------------------------------
    # Egress: resolved objects, one path
    # ------------------------------------------------------------------
    def _link_cs(self, cs_ip: IPv4Address) -> None:
        self._cs_links[cs_ip.value] = ShimLink(
            self, cs_ip, self.egress.service_egress(cs_ip))

    def _egress_for(self, code: int, arg):
        """The egress object an emission code names (flowtable.EMIT_*).
        Entries resolve theirs once, at compile time; the controller
        per emission."""
        if code == EMIT_VLAN:
            return self.egress.vlan_egress(arg)
        if code == EMIT_UPSTREAM:
            return self.egress.upstream_egress
        if code == EMIT_CS:
            return self._cs_links[arg.value]
        return self.egress.service_egress(arg)

    def _send(self, plan, packet: IPv4Packet, shaper=None) -> None:
        """A controller packet toward a flow's originator or
        destination: out the ``(code, arg)`` plan's egress, after the
        flow's LIMIT shaper (if any) has had its say."""
        egress = self._egress_for(*plan)
        if shaper is not None:
            egress = Shaped(self.sim, shaper, egress)
        egress.send(packet)

    def publish_globals(self, demux: Dict[int, "SubfarmRouter"]) -> None:
        """Keep ``demux`` — the gateway's ``global address (int) ->
        router`` map — exact for the addresses this subfarm answers
        for: inmates' global addresses as the NAT table binds and
        unbinds them (whoever calls it), service-NAT addresses as they
        are allocated.  Pools are farm-wide, so an address has one
        owner at a time."""
        demux.update(dict.fromkeys(self._service_nat_rev, self))
        self._demux = demux
        self.nat.watch_globals(self._global_changed)

    def _global_changed(self, address: IPv4Address, bound: bool) -> None:
        if bound:
            self._demux[address.value] = self
        elif self._demux.get(address.value) is self:
            del self._demux[address.value]

    # ------------------------------------------------------------------
    # Entry point: frames from inmates (trunk, tagged)
    # ------------------------------------------------------------------
    def inmate_frame(self, frame, vlan: int) -> None:
        barrier = self.barrier
        if barrier.fail_stopped:
            barrier.note_failstop_drop()
            return
        try:
            self._inmate_frame_body(frame, vlan)
        except ParseError as error:
            self._on_parse_error(error, vlan=vlan, frame=frame)

    def ingest_wire(self, vlan: int, data: bytes) -> None:
        """Raw-bytes trunk ingest: one wire-format Ethernet frame.

        This is the hostile surface :mod:`repro.fuzz` drives — inmates
        emit arbitrary bytes, so parse failures here are routine, not
        exceptional.  Any :class:`ParseError` lands in the barrier;
        anything else that escapes is a parser bug.
        """
        barrier = self.barrier
        if barrier.fail_stopped:
            barrier.note_failstop_drop()
            return
        try:
            frame = EthernetFrame.from_bytes(data)
        except ParseError as error:
            self._on_parse_error(error, vlan=vlan, data=data)
            return
        if frame.vlan is not None:
            vlan = frame.vlan
        try:
            self._inmate_frame_body(frame, vlan)
        except ParseError as error:
            self._on_parse_error(error, vlan=vlan, data=data)

    def _inmate_frame_body(self, frame, vlan: int) -> None:
        """One admitted trunk frame: trace capture, bridge learning, the
        traffic classes that never reach containment (DHCP,
        gateway-addressed, broadcast, trusted services), then the flow
        table — and a new flow when nothing knows the packet."""
        now = self.sim.now
        self.trace.capture(now, frame, "inmate")
        packet = frame.payload
        if not isinstance(packet, IPv4Packet):
            return
        self.bridge.learn(vlan, frame.src, now, packet.src)

        if packet.proto == PROTO_UDP and packet.udp.dport == DHCP_SERVER_PORT:
            admission.handle_dhcp(self, vlan, frame, packet)
            return
        dst = packet.dst.value
        if dst == self.gateway_ip.value:
            return  # traffic to the gateway itself (nothing listens)
        if dst == 0xFFFFFFFF:
            return  # other broadcast boot chatter
        if dst in self.trusted_ips:
            # Restricted broadcast domain: DHCP/DNS-style services are
            # reachable without containment.
            self.egress.service_egress(packet.dst).send(packet)
            return
        if not self._lookup(packet):
            admission.new_flow(self, packet, vlan=vlan,
                               inmate_is_originator=True)

    def _lookup(self, packet: IPv4Packet) -> bool:
        """Probe the flow table, once, with the packet's flow key —
        ``(src ip as int, sport, dst ip as int, dport, proto)``,
        computed here and nowhere else on the packet's way through.
        True when the packet found its flow and was handled.  An
        installed rule is a hit and runs the executor; any other row is
        a miss and hands the packet to the controller's handler for
        the leg the row names."""
        proto = packet.proto
        if proto != PROTO_TCP and proto != PROTO_UDP:
            return False
        transport = packet.payload
        row = self._table.get((packet.src.value, transport.sport,
                               packet.dst.value, transport.dport, proto))
        if row is not None and row.installed:
            row.hits += 1
            self.flowtable.hits += 1
            apply(self, row, packet)
            return True
        self.flowtable.misses += 1
        if row is None:
            return False
        self._legs[row.leg](row, packet)
        return True

    #: Frozen names the layer ledger wraps (repro.net.wirebatch).
    inmate_frame_batch = ingest_batch = retired

    # ------------------------------------------------------------------
    # Entry point: frames from subfarm service hosts
    # ------------------------------------------------------------------
    def service_frame(self, frame) -> None:
        faults = self.shim_link_faults
        if faults is not None:
            packet = frame.payload
            if (isinstance(packet, IPv4Packet)
                    and packet.src.value in self._cs_links):
                # Frames from a containment server cross the faulty
                # link too; delayed frames re-enter via the body so
                # they are not charged twice.
                if not faults.admit_return(frame, self._service_frame_body):
                    return
        self._service_frame_body(frame)

    def _service_frame_body(self, frame) -> None:
        barrier = self.barrier
        if barrier.fail_stopped:
            barrier.note_failstop_drop()
            return
        try:
            self._service_frame_inner(frame)
        except ParseError as error:
            self._on_parse_error(error, vlan=None, frame=frame)

    def _service_frame_inner(self, frame) -> None:
        packet = frame.payload
        # A coupled flow's mux-port legs are rows like any other.
        if not isinstance(packet, IPv4Packet) or self._lookup(packet):
            return
        # A server's onward (nonce) leg has no key until the router has
        # learned the target from its first packet, matched by its
        # source port.  Anything else a server sends is on no flow (or
        # on one whose verdict took the server off its path): dropped,
        # never shown to an inmate.
        if packet.src.value in self._cs_links:
            record = (self._by_nonce.get(packet.payload.sport)
                      if packet.proto == PROTO_TCP else None)
            if record is not None:
                coupling.open_nonce_leg(self, record, packet)
            return
        # Stateless service traffic: replies to inmates, service-to-
        # service chatter, or service-originated outbound (DNS
        # recursion, banner grabs) which rides the control-network NAT.
        vlan = self.bridge.vlan_for_ip(packet.dst)
        if vlan is not None:
            self.egress.vlan_egress(vlan).send(packet)
            return
        if packet.dst.value in self.service_ips:
            self.egress.service_egress(packet.dst).send(packet)
            return
        admission.service_outbound(self, packet)

    # ------------------------------------------------------------------
    # Entry point: packets from upstream addressed into this subfarm
    # ------------------------------------------------------------------
    def upstream_packet(self, packet: IPv4Packet) -> None:
        barrier = self.barrier
        if barrier.fail_stopped:
            barrier.note_failstop_drop()
            return
        try:
            if not self._lookup(packet):
                admission.upstream_unmatched(self, packet)
        except ParseError as error:
            self._on_parse_error(error, vlan=None, packet=packet)

    def owns_global(self, address: IPv4Address) -> bool:
        """Does this router answer for a global (upstream) address?"""
        return (
            self.nat.vlan_for_global(address) is not None
            or address.value in self._service_nat_rev
        )

    # ------------------------------------------------------------------
    # Malice barrier: hostile-input handling (never unwind the loop)
    # ------------------------------------------------------------------
    def _on_parse_error(self, error: ParseError, vlan: Optional[int] = None,
                        frame=None, data: Optional[bytes] = None,
                        packet: Optional[IPv4Packet] = None) -> None:
        """A parser rejected ingested bytes: drop, count, quarantine,
        and apply the configured policy."""
        wire = frame if frame is not None else packet
        policy = self.barrier.record(error, vlan=vlan, data=data, frame=wire)
        if policy != "isolate":
            return
        if packet is None and frame is not None:
            payload = getattr(frame, "payload", None)
            if isinstance(payload, IPv4Packet):
                packet = payload
        if packet is not None:
            housekeeping.isolate_offender(self, packet)

    # ------------------------------------------------------------------
    # Housekeeping entry points (the rest is repro.gateway.housekeeping)
    # ------------------------------------------------------------------
    def sweep_flowtable(self) -> int:
        """The housekeeping sweep: evict every record idle past
        ``flow_idle_timeout`` (:meth:`expire_idle_flows`), its rules
        with it.  Returns how many went."""
        return self.expire_idle_flows(self.flow_idle_timeout)

    def expire_idle_flows(self, max_idle: float) -> int:
        """Evict every record idle longer than ``max_idle`` that still
        holds rows and ports — a dropped or aborted flow as much as a
        live one (afterwards a SYN on the tuple is a new flow and gets
        its verdict again; anything else is dropped as mid-flow).

        Long deployments (the paper ran for six years) must not grow
        the flow table without bound; run this periodically.  An
        evicted flow's line in ``flow_log`` is all that stays.
        """
        expired = 0
        horizon = self.sim.now - max_idle
        for record in list(self._by_mux.values()):
            if record.last_activity <= horizon:
                housekeeping.evict(self, record)
                expired += 1
        return expired

    def forget_inmate(self, vlan: int) -> None:
        """Clear state when an inmate is reverted or terminated."""
        self.safety.reset_inmate(vlan)
        self.bridge.forget(vlan)
        for record in self._live_flows():
            if record.vlan == vlan:
                housekeeping.evict(self, record)

    def __repr__(self) -> str:
        return f"<SubfarmRouter {self.name} vlans={len(self.vlan_ids)}>"
