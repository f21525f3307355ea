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
   sees the inmate.  All other verdicts are *handed off*: the router
   replays the original SYN (plus any buffered payload) toward the
   enforced destination, aborts the containment-server leg, and
   translates sequence numbers between the two server ISNs for the
   rest of the flow's life.

Division of labour (docs/PERFORMANCE.md, "The flow table and the
controller"): every relayed packet is rewritten by data — each leg of a
flow's life is a :class:`~repro.gateway.flowtable.Row` of the flow
table, the coupled SHIM-phase legs from the flow's first packet on, and
``flowtable.apply`` is the only code that translates one.  After the
verdict the rows are installed as
:class:`~repro.gateway.flowtable.FlowEntry` rules and packets never
reach the controller; before it (and on a table miss after a timeout,
a SYN retransmit, an RST) the row hands the packet to the controller's
handler for its leg, which does the bookkeeping — buffer for the
handoff replay, strip the shim, learn ISNs — and runs the packet
through the row itself.  What is written out as code here is what
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

from repro.core.shim import (
    RequestShim,
    ResponseShim,
    ShimError,
    peek_length,
)
from repro.core.verdicts import ContainmentDecision, Verdict
from repro.gateway.barrier import MaliceBarrier
from repro.gateway.bridge import LearningBridge
from repro.gateway.egress import Shaped, ShimLink
from repro.gateway.flows import (
    FlowLogEntry,
    FlowPhase,
    FlowRecord,
    TokenBucket,
)
from repro.gateway.flowtable import (
    ACT_DROP_TCP,
    ACT_DROP_UDP,
    ACT_TCP_C2CS,
    ACT_TCP_C2D,
    ACT_TCP_CS2C,
    ACT_TCP_CS2W,
    ACT_TCP_D2C,
    ACT_TCP_W2CS,
    ACT_UDP_C2CS,
    ACT_UDP_C2D,
    ACT_UDP_D2C,
    EMIT_CS,
    EMIT_SERVICE,
    EMIT_UPSTREAM,
    EMIT_VLAN,
    LEG_CS,
    LEG_NONCE,
    LEG_ORIGINATOR,
    LEG_RETURN,
    FlowEntry,
    FlowTable,
    Rewrite,
    Row,
    apply,
)
from repro.net.wirebatch import ORIGIN_UPSTREAM
from repro.gateway.nat import InboundMode, NatTable
from repro.gateway.safety import SafetyFilter
from repro.net.addresses import IPv4Address
from repro.net.capture import PacketTrace
from repro.net.errors import ParseError
from repro.net.flow import FiveTuple
from repro.obs.journal import ROOT as JOURNAL_ROOT
from repro.net.packet import (
    ACK,
    EthernetFrame,
    FIN,
    IPv4Packet,
    PROTO_TCP,
    PROTO_UDP,
    PSH,
    RST,
    SYN,
    TCPSegment,
    UDPDatagram,
)
from repro.net.tcp import seq_add
from repro.services.dhcp import DhcpMessage, DHCP_SERVER_PORT, DHCP_CLIENT_PORT
from repro.sim.engine import Simulator

# Phases in which a record still owns demux state worth housekeeping.
_LIVE_PHASES = (FlowPhase.SHIM, FlowPhase.HANDOFF, FlowPhase.ENFORCED)
# Phases in which a verdict stands as installed rules.
_DECIDED = (FlowPhase.ENFORCED, FlowPhase.DROPPED)


def _readdressed(packet: IPv4Packet, src: Optional[IPv4Address] = None,
                 dst: Optional[IPv4Address] = None) -> IPv4Packet:
    """NAT rewrite of a received packet: a new header over the same
    transport payload.  The packet itself belongs to whoever sent it
    (docs/PERFORMANCE.md, "Packet ownership")."""
    return IPv4Packet(src or packet.src, dst or packet.dst, packet.payload,
                      packet.proto, packet.ttl, packet.ident)


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
        # Containment-server cluster support (§7.2): additional
        # servers registered via add_containment_server(); selection
        # is sticky per inmate (same VLAN -> same server).
        self._cs_list = [self.cs_ip]
        self.cs_tcp_port = cs_tcp_port
        self.cs_udp_port = cs_udp_port
        self.gateway_ip = IPv4Address(gateway_ip)
        self.dns_ip = IPv4Address(dns_ip) if dns_ip is not None else None
        # The gateway's egress side (the Gateway itself, or a stand-in
        # with the same vlan_egress / service_egress / upstream_egress /
        # egresses names): one object per target.
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
        # Per-packet instrument sites make no call while telemetry is
        # off (docs/OBSERVABILITY.md).
        self._live = self.telemetry.enabled
        # Decision journal (repro.obs.journal): NULL_JOURNAL unless the
        # farm attached a live one before building this router.  All
        # journal call sites are flow-level (never per-packet) and
        # guarded on .enabled, so a disabled journal costs one
        # attribute read on the slow path only.
        self.journal = sim.journal
        self.bridge = LearningBridge(telemetry=self.telemetry, subfarm=name)
        self.trace = PacketTrace(f"{name}-inmate-side")

        # Infra services reachable without containment (the restricted
        # broadcast domain of §5.3) plus all registered service hosts.
        # Trusted addresses are held as ints: the per-frame membership
        # test must not pay IPv4Address.__hash__/__eq__.
        self.trusted_ips: Set[int] = set()
        self.service_ips: Set[int] = set()
        if self.dns_ip is not None:
            self.trusted_ips.add(self.dns_ip.value)

        self._flows: List[FlowRecord] = []
        # Records that still hold rows, by mux port (creation order),
        # and by the nonce port their server's onward leg starts from.
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
        self._legs = (self._from_originator, self._from_return,
                      self._from_cs, partial(apply, self))
        # Entry aging on the virtual clock (None = no aging): consulted
        # at install time, enforced lazily at probe time and eagerly by
        # the housekeeping sweep.
        self.flowtable_idle_timeout: Optional[float] = None
        self.flowtable_hard_timeout: Optional[float] = None

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
        self.counters = {
            "flows_created": 0,
            "flows_refused": 0,
            "shims_injected": 0,
            "shims_stripped": 0,
            "handoffs": 0,
            "packets_relayed": 0,
            "dhcp_leases": 0,
        }

        # Telemetry: bound cells mirroring the counters dict, the
        # per-verdict flow counter (bound lazily — label set depends on
        # the decision), the shim round-trip histogram, and per-flow
        # trace state keyed by mux port (cleaned up on eviction).
        tel = self.telemetry
        self._m_flows_created = tel.counter(
            "router.flows.created", "Flows entering containment"
        ).bind(subfarm=name)
        self._m_flows_refused = tel.counter(
            "router.flows.refused", "Flows refused by the safety filter"
        ).bind(subfarm=name)
        self._m_shims_injected = tel.counter(
            "router.shims.injected", "Request shims sent to the CS"
        ).bind(subfarm=name)
        self._m_shims_stripped = tel.counter(
            "router.shims.stripped", "Response shims parsed and removed"
        ).bind(subfarm=name)
        self._m_handoffs = tel.counter(
            "router.handoffs", "Flows handed off to their destination"
        ).bind(subfarm=name)
        self._m_packets = tel.counter(
            "router.packets.relayed", "Packets relayed through the router"
        ).bind(subfarm=name)
        self._m_dhcp = tel.counter(
            "service.dhcp.leases", "DHCP leases acknowledged"
        ).bind(subfarm=name)
        # Telemetry cell per counter a flow-table action may bump
        # (KindSpec.counter), so the executor indexes instead of
        # branching.
        self._cells = {"packets_relayed": self._m_packets,
                       "shims_injected": self._m_shims_injected}
        self._m_verdicts = tel.counter(
            "router.flows.verdict",
            "Containment verdicts applied, by verdict and protocol")
        # Per-(vlan, verdict, proto) bound cells, resolved lazily so the
        # label-sort-and-lookup cost is paid once per combination rather
        # than on every verdict.
        self._verdict_cells: Dict[tuple, object] = {}
        self._h_shim_rtt = tel.histogram(
            "router.shim.rtt",
            "Virtual seconds from flow creation to verdict"
        ).bind(subfarm=name)
        # mux port -> journal flow id; filled only while a journal is
        # live (a telemetry-only run keeps no per-flow observation
        # state).
        self._trace_ids: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Public queries
    # ------------------------------------------------------------------
    def flows(self) -> List[FlowRecord]:
        return list(self._flows)

    def _live_flows(self) -> List[FlowRecord]:
        """Records still coupled or forwarding, oldest first.

        Read off ``_by_mux``, which holds exactly the records not yet
        evicted, in creation order — so it costs what holds rows, not
        everything the deployment ever saw (``_flows``).  A list,
        because callers evict while they walk it.
        """
        return [record for record in self._by_mux.values()
                if record.phase in _LIVE_PHASES]

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
            # Any server of the cluster may come to answer a live
            # flow's mux port (failover re-homes pending flows).
            for record in self._by_mux.values():
                self.flowtable.bind(self._cs_row(record, ip))

    def _select_cs(self, vlan: int) -> IPv4Address:
        """Sticky selection: the same server always handles the same
        inmate (§7.2's suggested policy)."""
        return self._cs_list[vlan % len(self._cs_list)]

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

    def _to_client(self, record: FlowRecord, transport) -> None:
        """Emit a router-built segment or datagram toward the flow's
        originator, as from the destination it addressed."""
        self._send(self._client_plan(record), IPv4Packet(
            record.orig.resp_ip, record.orig.orig_ip, transport),
            record.shaper)

    def _to_cs(self, record: FlowRecord, seq: int, ack: int, flags: int,
               payload: bytes = b"") -> None:
        """Emit a router-built segment on the flow's containment-server
        leg — already in the server's port and sequence space — over its
        shim link, which consults the fault view when one is installed."""
        segment = TCPSegment(record.mux_port, self.cs_tcp_port, seq, ack,
                             flags, payload=payload)
        self._cs_links[record.cs_ip.value].send(
            IPv4Packet(record.orig.orig_ip, record.cs_ip, segment))

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
    # Allocation helpers
    # ------------------------------------------------------------------
    def _allocate_slot(self) -> Optional[int]:
        """A free per-flow slot — mux port ``MUX_PORT_BASE + slot`` toward
        the containment server, nonce port ``NONCE_PORT_BASE + slot`` for
        its onward leg — or None when records hold all of them."""
        for _ in range(self.PORT_SLOTS):
            slot = self._next_slot
            self._next_slot = (slot + 1) % self.PORT_SLOTS
            if self.MUX_PORT_BASE + slot not in self._by_mux:
                return slot
        return None

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
            self._handle_dhcp(vlan, frame, packet)
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
            self._new_flow(packet, vlan=vlan, inmate_is_originator=True)

    def _lookup(self, packet: IPv4Packet) -> bool:
        """Probe the flow table, once, with the packet's flow key —
        ``(src ip as int, sport, dst ip as int, dport, proto)``,
        computed here and nowhere else on the packet's way through.
        True when the packet found its flow and was handled.  A live
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
            now = self.sim.now
            if now < row.expires_at and (
                    row.idle_timeout is None
                    or now - row.record.last_activity
                    < row.idle_timeout):
                row.hits += 1
                self.flowtable.hits += 1
                apply(self, row, packet)
                return True
            self._fastpath_timeout(row, now)
            row = self._table[row.key]   # demoted: the rewrite alone
        self.flowtable.misses += 1
        if row is None:
            return False
        self._legs[row.leg](row, packet)
        return True

    def inmate_frame_batch(self, items) -> None:
        """Trunk ingest for a coalesced batch of ``(frame, vlan)``
        pairs delivered at the same virtual instant: per-frame
        ingestion, in order.  (Vectorizing same-entry runs of packet
        objects was measured to buy nothing end to end — see
        docs/PERFORMANCE.md, "Batching".)"""
        barrier = self.barrier
        for frame, vlan in items:
            if barrier.fail_stopped:
                barrier.note_failstop_drop()
                continue
            try:
                self._inmate_frame_body(frame, vlan)
            except ParseError as error:
                self._on_parse_error(error, vlan=vlan, frame=frame)

    # ------------------------------------------------------------------
    # Struct-of-arrays batched datapath
    # ------------------------------------------------------------------
    def ingest_batch(self, batch, out) -> None:
        """Run a :class:`repro.net.wirebatch.WireBatch` through the
        flow table, vectorized per same-key run, collecting all output
        into ``out`` (a :class:`repro.net.wirebatch.BatchOutput`).

        This is the raw datapath surface: rows are transport packets
        already past frame admission (no trace capture or bridge
        learning happens here).  Runs whose entry declines batching —
        state-changing flags, shaped emission, an active shim-link
        fault view — and table-miss rows are materialized back into
        packet objects and take the ordinary scalar path row by row
        (each row probes afresh: an earlier one may have installed or
        evicted the rule), with their emissions captured into ``out``
        so row order across the whole batch is preserved exactly.  A
        shaped packet the token bucket delays is emitted later by the
        simulator, straight to the wire like any scalar emission:
        ``out`` only ever holds what left during this call.
        Inmate-origin rows must carry their vlan.
        """
        barrier = self.barrier
        if barrier.fail_stopped:
            for _ in range(len(batch)):
                barrier.note_failstop_drop()
            return
        entries = self.flowtable.entries
        keys = batch.keys
        n = len(keys)
        # What the scalar rows emit during this call lands in ``out``.
        diverted = self.egress.egresses()
        for egress in diverted:
            egress.divert(lambda packet, code=egress.code, arg=egress.arg:
                          out.append_packet(code, arg, packet))
        try:
            i = 0
            while i < n:
                key = keys[i]
                j = i + 1
                while j < n and keys[j] == key:
                    j += 1
                entry = entries.get(key)
                if entry is not None and entry.installed:
                    now = self.sim.now
                    if not (now < entry.expires_at and (
                            entry.idle_timeout is None
                            or now - entry.record.last_activity
                            < entry.idle_timeout)):
                        self._fastpath_timeout(entry, now)
                    elif self._run_soa(entry, batch, i, j, out):
                        i = j
                        continue
                for row in range(i, j):
                    packet = batch.materialize(row)
                    if self._lookup(packet):
                        continue
                    if batch.origin[row] == ORIGIN_UPSTREAM:
                        self._upstream_unmatched(packet)
                    else:
                        self._new_flow(packet, vlan=batch.vlan[row],
                                       inmate_is_originator=True)
                i = j
        finally:
            for egress in diverted:
                egress.restore()

    def _run_soa(self, entry: FlowEntry, batch, i: int, j: int,
                 out) -> bool:
        """Apply one live entry's action vectorized over rows [i, j) of
        a WireBatch, appending a single run to ``out``: the executor's
        reading of the entry and its kind spec, over columns.  Returns
        False, having done nothing, for a run that must execute packet
        by packet (a per-packet token bucket or fault view, or a
        state-changing segment among the rows)."""
        (_name, proto, packet_in_flags, originator, touch, counter,
         ack_zero, fin_marks) = entry.spec
        record = entry.record
        rows = range(i, j)
        flags_col = batch.flags
        if (entry.shaped
                or (entry.emit_code == EMIT_CS
                    and self.shim_link_faults is not None)
                or (packet_in_flags and any(
                    flags_col[r] & packet_in_flags for r in rows))):
            return False
        count = j - i
        entry.hits += count
        self.flowtable.hits += count
        if touch:
            record.last_activity = self.sim.now
        if originator is None:
            return True
        nbytes = sum(batch.pay_len[i:j])
        if originator:
            record.c2s_packets += count
            record.c2s_bytes += nbytes
            if fin_marks and any(flags_col[r] & FIN for r in rows):
                record.client_fin = True
        else:
            record.s2c_packets += count
            record.s2c_bytes += nbytes
        if counter is not None:
            self.counters[counter] += count
            self._cells[counter].inc(count)
        payloads = batch.pay_obj[i:j]
        if proto == PROTO_UDP:
            if entry.payload_prefix:
                payloads = [entry.payload_prefix + p for p in payloads]
            out.append_run(entry.emit_code, entry.emit_arg, PROTO_UDP,
                           entry.src_ip, entry.dst_ip, entry.out_sport,
                           entry.out_dport, None, None, None, None,
                           payloads)
            return True
        seq_col = batch.seq
        ack_col = batch.ack
        sd = entry.seq_delta
        ad = entry.ack_delta
        mask = 0xFFFFFFFF
        seqs = ([(seq_col[r] + sd) & mask for r in rows]
                if sd else list(seq_col[i:j]))
        if ack_zero:
            acks = [(ack_col[r] + ad) & mask if flags_col[r] & ACK else 0
                    for r in rows]
        else:
            acks = [(ack_col[r] + ad) & mask
                    if flags_col[r] & ACK else ack_col[r] for r in rows]
        out.append_run(entry.emit_code, entry.emit_arg, PROTO_TCP,
                       entry.src_ip, entry.dst_ip, entry.out_sport,
                       entry.out_dport, seqs, acks,
                       list(flags_col[i:j]), list(batch.window[i:j]),
                       payloads)
        return True

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
        # The containment server's mux-port leg is in the table from
        # the flow's first packet (_couple), so _lookup finds it like
        # any other leg.
        if not isinstance(packet, IPv4Packet) or self._lookup(packet):
            return
        # The server's onward (nonce) leg has no key until the router
        # has learned the target from its first packet, which is
        # matched by its source port.
        if packet.proto == PROTO_TCP and packet.src.value in self._cs_links:
            record = self._by_nonce.get(packet.payload.sport)
            if record is not None:
                self._open_nonce_leg(record, packet)
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
        self._service_outbound(packet)

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
                self._upstream_unmatched(packet)
        except ParseError as error:
            self._on_parse_error(error, vlan=None, packet=packet)

    def _upstream_unmatched(self, packet: IPv4Packet) -> None:
        """An upstream packet that belongs to no known flow."""
        # Return traffic for service-originated outbound?
        internal = self._service_nat_rev.get(packet.dst.value)
        if internal is not None:
            self.egress.service_egress(internal).send(
                _readdressed(packet, dst=internal))
            return
        # Unsolicited inbound toward an inmate's global address.
        vlan = self.nat.vlan_for_global(packet.dst)
        if vlan is None:
            return
        if self.nat.inbound_mode is InboundMode.DROP:
            return  # home-user NAT: nothing gets in
        if (packet.proto == PROTO_TCP
                and packet.payload.flags & (SYN | ACK) != SYN):
            return  # stray non-SYN (or SYN-ACK) for an unknown flow
        self._new_flow(packet, vlan=vlan, inmate_is_originator=False)

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
            self._isolate_offender(packet)

    def _isolate_offender(self, packet: IPv4Packet) -> None:
        """Abort the flow the offending bytes arrived on and drop its
        demux state, so nothing more from it reaches a parser."""
        if packet.proto not in (PROTO_TCP, PROTO_UDP):
            return
        transport = packet.payload
        row = self._table.get((packet.src.value, transport.sport,
                               packet.dst.value, transport.dport,
                               packet.proto))
        if row is None:
            return
        record = row.record
        if self.journal.enabled:
            self.journal.record(
                "barrier.isolated",
                flow=self._trace_ids.get(record.mux_port),
                vlan=record.vlan)
        self._abort_flow(record, notify_client=False)
        self._evict(record)
        self.barrier.note_isolation()

    # ------------------------------------------------------------------
    # DHCP (the gateway assigns internal addresses itself — §5.3)
    # ------------------------------------------------------------------
    def _handle_dhcp(self, vlan: int, frame, packet: IPv4Packet) -> None:
        try:
            message = DhcpMessage.from_bytes(packet.udp.payload)
        except ValueError:
            return
        internal = self.nat.bind(vlan)
        if message.kind == DhcpMessage.DISCOVER:
            reply = DhcpMessage.offer(
                message.xid, message.chaddr, internal,
                router=self.gateway_ip, dns=self.dns_ip or self.gateway_ip,
            )
        elif message.kind == DhcpMessage.REQUEST:
            reply = DhcpMessage.ack(
                message.xid, message.chaddr, internal,
                router=self.gateway_ip, dns=self.dns_ip or self.gateway_ip,
            )
            self.counters["dhcp_leases"] += 1
            self._m_dhcp.inc()
        else:
            return
        out = IPv4Packet(
            self.gateway_ip, internal,
            UDPDatagram(DHCP_SERVER_PORT, DHCP_CLIENT_PORT, reply.to_bytes()),
        )
        self.egress.vlan_egress(vlan).send(out)

    # ------------------------------------------------------------------
    # Flow creation and the shim (SHIM phase)
    # ------------------------------------------------------------------
    def _new_flow(self, packet: IPv4Packet, vlan: int,
                  inmate_is_originator: bool) -> None:
        proto = packet.proto
        if proto != PROTO_TCP and proto != PROTO_UDP:
            return
        if (proto == PROTO_TCP
                and packet.payload.flags & (SYN | ACK) != SYN):
            return  # mid-flow packet for an unknown flow: drop
        key = FiveTuple.from_packet(packet)

        # The safety filter guards against *outbound* harm; inbound
        # traffic (e.g. worm scans the honeyfarm wants to attract) is
        # not rate-limited here.
        if inmate_is_originator and not self.safety.admit(
            self.sim.now, vlan, key.resp_ip
        ):
            self._refuse(key, vlan, inmate_is_originator)
            return
        slot = self._allocate_slot()
        if slot is None:
            # Every slot is held by a record active within
            # flow_idle_timeout: refuse, never unwind the event loop.
            self._refuse(key, vlan, inmate_is_originator,
                         reason="mux-exhausted")
            return

        mux = self.MUX_PORT_BASE + slot
        record = FlowRecord(key, vlan, inmate_is_originator, self.sim.now,
                            mux, self.NONCE_PORT_BASE + slot)
        record.cs_ip = self._select_cs(vlan)
        self._arm_housekeeping()
        self._flows.append(record)
        self.counters["flows_created"] += 1
        self._m_flows_created.inc()
        self._by_mux[mux] = record
        self._by_nonce[record.nonce_port] = record
        # The originator's tuple reversed, then the coupled legs.
        self.flowtable.bind(Row(record.resp_key, record, LEG_RETURN))
        self._couple(record)

        if self.journal.enabled:
            # The five-tuple alias lets the containment server — which
            # only ever sees the flow through serialized shim bytes —
            # journal onto the same causal chain.
            flow_id = (f"{self.name}/vlan{vlan}/mux{mux}"
                       f"/t{self.sim.now:.6f}")
            self._trace_ids[mux] = flow_id
            self.journal.bind_flow(f"vlan{vlan}/{key}", flow_id)
            self.journal.record(
                "flow.created", flow=flow_id, vlan=vlan,
                parent=JOURNAL_ROOT,
                proto="tcp" if proto == PROTO_TCP else "udp",
                destination=str(key.resp_ip))

        transport = packet.payload
        if proto == PROTO_TCP:
            record.client_isn = transport.seq
        else:
            record.hold_udp(transport.copy())
        resilience = self.resilience
        if resilience is not None and resilience.handle_new_flow(record):
            return  # degraded: resolved by the pending policy
        self._offer(record, transport)
        if resilience is not None:
            resilience.arm(record)

    def _refuse(self, key: FiveTuple, vlan: int, inmate_is_originator: bool,
                **why) -> None:
        """Log a flow that never gets rows: REFUSED, counted, journalled
        (with the reason when it is not the safety filter's)."""
        record = FlowRecord(key, vlan, inmate_is_originator,
                            self.sim.now, 0, 0)
        record.phase = FlowPhase.REFUSED
        self._flows.append(record)
        self.flow_log.append(FlowLogEntry(self.sim.now, record))
        self.counters["flows_refused"] += 1
        self._m_flows_refused.inc()
        if self.journal.enabled:
            self.journal.record(
                "flow.refused",
                flow=(f"{self.name}/vlan{vlan}/refused"
                      f"/t{self.sim.now:.6f}"),
                vlan=vlan, parent=JOURNAL_ROOT,
                destination=str(key.resp_ip), **why)

    # ---- The coupled legs (SHIM phase; REWRITE for life) --------------
    def _couple(self, record: FlowRecord) -> None:
        """Bind the coupled legs — originator to the flow's containment
        server, every server of the cluster back on the flow's mux port
        — from the record's present state: at creation, when the
        request shim goes in, at a failover re-home."""
        self.flowtable.bind(self._c2cs_row(record))
        self._bind_cs_legs(record)

    def _bind_cs_legs(self, record: FlowRecord) -> None:
        """The servers' side of the coupling alone — all the verdict still
        has to refresh: the response shim has come out, a shaper may have
        gone in."""
        for cs_ip in self._cs_list:
            self.flowtable.bind(self._cs_row(record, cs_ip))

    def _offer(self, record: FlowRecord, transport) -> None:
        """Put a flow's opening packet — at creation, and again when
        failover retries or replays it — before its containment server,
        through the coupled row.  The flow's own accounting and idle
        clock never saw these (every tracked digest pins that), so the
        row's bookkeeping is put back."""
        kept = record.c2s_packets, record.c2s_bytes, record.last_activity
        orig = record.orig
        apply(self, self._table[record.orig_key], IPv4Packet.wrap(
            orig.orig_ip, orig.resp_ip, transport, orig.proto),
            packet_in=False)
        record.c2s_packets, record.c2s_bytes, record.last_activity = kept

    def _inject_request_shim(self, record: FlowRecord) -> None:
        payload = RequestShim(record.orig, record.vlan,
                              record.nonce_port).to_bytes()
        # SEQ += |REQ SHIM| for everything the originator sends after.
        record.c2s_inj = len(payload)
        record.shim_injected = True
        self.counters["shims_injected"] += 1
        self._m_shims_injected.inc()
        self._to_cs(record, seq_add(record.client_isn, 1),
                    seq_add(record.cs_isn, 1), ACK | PSH, payload)
        self._couple(record)

    def _replay_cs_handshake(self, record: FlowRecord) -> None:
        """Complete a re-homed containment-server leg on the client's
        behalf: ACK the fresh SYN-ACK, re-inject the request shim, and
        replay any payload the client already sent (the handoff replay
        idiom of _complete_handoff, pointed at the new server)."""
        orig = record.orig

        def as_client(flags: int, payload: bytes = b"") -> TCPSegment:
            return TCPSegment(
                sport=orig.orig_port, dport=orig.resp_port,
                seq=seq_add(record.client_isn, 1),
                ack=seq_add(record.cs_isn, 1), flags=flags, payload=payload)

        self._offer(record, as_client(ACK))
        self._inject_request_shim(record)
        if record.client_buffer:
            self._offer(record, as_client(ACK | PSH,
                                          bytes(record.client_buffer)))

    # ------------------------------------------------------------------
    # The controller: one handler per leg (SubfarmRouter._legs)
    # ------------------------------------------------------------------
    def _from_originator(self, row: Row, packet: IPv4Packet) -> None:
        """A packet on the originator's tuple: a new incarnation of it,
        a miss or SYN retransmit of a decided flow, the client's RST,
        or anything before the verdict."""
        record = row.record
        record.last_activity = self.sim.now
        transport = packet.payload
        tcp = packet.proto == PROTO_TCP
        flags = transport.flags if tcp else 0
        # A pure SYN with a new ISN is a new incarnation of the flow
        # (port reuse after close, or a fresh host generation after a
        # revert): evict the stale record and start containment over.
        if (flags & (SYN | ACK) == SYN
                and transport.seq != record.client_isn):
            self._evict(record)
            self._new_flow(packet, vlan=record.vlan,
                           inmate_is_originator=record.inmate_is_originator)
            return
        phase = record.phase
        if phase in _DECIDED and not record.installed:
            # Table miss on a flow whose verdict stands — an idle/hard
            # timeout demoted its rules: install them afresh (OpenFlow's
            # table-miss -> flow_mod cycle).
            self._fastpath_install(record)
            row = self._table[row.key]
        if phase not in _LIVE_PHASES:
            return  # dropped or aborted: swallowed
        if flags & RST:
            record.c2s_packets += 1
            record.c2s_bytes += len(transport.payload)
            self._abort_flow(record, notify_client=False)
        elif phase is FlowPhase.ENFORCED:
            # Decided: forwarded by the flow's own rule and nothing
            # else, packet-in disabled.
            apply(self, row, packet, packet_in=False)
        elif tcp and phase is FlowPhase.SHIM:
            # Coupled: buffer for the handoff replay, relay through the
            # row, and put the request shim in the moment the inmate
            # completes the handshake.
            record.client_buffer.extend(transport.payload)
            apply(self, row, packet, packet_in=False)
            if (not record.shim_injected and record.cs_isn is not None
                    and flags & (SYN | ACK) == ACK):
                self._inject_request_shim(record)
        else:
            # Held for the verdict (a datagram after the first is not
            # shown to the server) or for the destination's handshake.
            record.c2s_packets += 1
            record.c2s_bytes += len(transport.payload)
            if not tcp:
                record.hold_udp(transport.copy())
                return
            record.client_buffer.extend(transport.payload)
            if flags & FIN:
                record.client_fin = True

    def _from_return(self, row: Row, packet: IPv4Packet) -> None:
        """A packet on a tuple that answers the originator: the
        enforced destination (for inmate-to-inmate and REFLECT flows
        its alias *is* the reversed originator tuple), a nonce leg's
        far end, or a stray on the reversed tuple, which has no rule."""
        record = row.record
        record.last_activity = self.sim.now
        phase = record.phase
        if phase in _DECIDED and not record.installed:
            self._fastpath_install(record)  # table miss, as above
            row = self._table[row.key]
        if phase not in _LIVE_PHASES:
            return
        if row.spec is not None:
            apply(self, row, packet, packet_in=False)
        elif packet.proto == PROTO_TCP and phase is not FlowPhase.ENFORCED:
            record.s2c_packets += 1
            segment = packet.payload
            answering = phase is FlowPhase.HANDOFF  # the replayed SYN
            if answering and segment.flags & RST:
                self._synthesize_client_rst(record)
                record.phase = FlowPhase.CLOSED
            elif answering and segment.flags & (SYN | ACK) == SYN | ACK:
                record.dst_isn = segment.seq
                self._complete_handoff(record)

    def _from_cs(self, row: Row, packet: IPv4Packet) -> None:
        """A containment server on the flow's mux port.  This leg never
        refreshes last_activity, whatever the flow's phase; what the
        controller does not consume — an RST, the SYN-ACK of a replayed
        handshake, the response shim, a close without one — is relayed
        through the row, a late segment after an endpoint verdict
        included."""
        record = row.record
        if packet.proto != PROTO_TCP:
            self._handle_cs_udp(record, packet)
            return
        segment = packet.payload
        flags = segment.flags
        if flags & RST:
            # The containment server aborted (or acknowledged our own
            # teardown); surface as reset to the client if still coupled.
            record.s2c_packets += 1
            if record.phase is FlowPhase.SHIM or (
                record.decision is not None
                and record.decision.verdict & Verdict.REWRITE
            ):
                self._abort_flow(record, notify_client=True)
            return
        if flags & (SYN | ACK) == SYN | ACK and record.cs_isn is None:
            record.cs_isn = segment.seq
            if record.cs_handshake_replay:
                # Failover re-home of a flow whose client already
                # handshook against the old server: finish the fresh
                # leg ourselves, never showing the client a second
                # SYN-ACK — unless the flow was resolved meanwhile and
                # there is nothing left to couple.
                record.s2c_packets += 1
                record.cs_handshake_replay = False
                if record.phase is FlowPhase.SHIM:
                    self._replay_cs_handshake(record)
                return
        elif record.phase is FlowPhase.SHIM and (segment.payload
                                                 or flags & FIN):
            record.s2c_packets += 1
            if segment.payload:
                record.shim_buffer.extend(segment.payload)
                self._try_parse_response_shim(record)
            else:
                # Server closed before issuing a verdict: treat as drop.
                self._apply_decision(record, ContainmentDecision.drop(
                    policy="cs-closed", annotation="no verdict"))
            return
        apply(self, row, packet, packet_in=False)

    # ------------------------------------------------------------------
    # Compiling a verdict into flow-table entries
    # ------------------------------------------------------------------
    # At verdict time the flow's forwarding becomes fixed: the
    # port/sequence translations, the destination addressing, and the
    # emission target are all decided.  _fastpath_install compiles that
    # knowledge into rows and installs them as FlowEntry rules under the
    # keys the flow's packets arrive on; the one executor
    # (flowtable.apply) does the rest.  The _compile_* steps (and the
    # coupled and nonce rows beside them) are the only place the
    # translations of Figure 5 are written down.

    def _fastpath_install(self, record: FlowRecord) -> None:
        if record.phase == FlowPhase.DROPPED:
            rows = self._compile_dropped(record)
        elif record.phase == FlowPhase.ENFORCED and record.decision is not None:
            if record.decision.verdict & Verdict.REWRITE:
                rows = self._compile_rewrite(record)
            else:
                rows = self._compile_endpoint(record)
        else:
            return
        # Transactional commit: compilation finished (and may have
        # raised) before any table mutation, so a failed compile can
        # never leave orphan entries or a half-installed rule set.
        self._fastpath_uninstall(record)
        table = self.flowtable
        for row in rows:
            table.bind(FlowEntry(row, self.sim.now,
                                 self.flowtable_idle_timeout,
                                 self.flowtable_hard_timeout))
        table.installs += len(rows)
        record.installed = True
        table.sync_metrics()
        if self.journal.enabled:
            self.journal.record(
                "fastpath.install",
                flow=self._trace_ids.get(record.mux_port),
                vlan=record.vlan, phase=record.phase.value,
                handlers=len(rows))

    def _fastpath_uninstall(self, record: FlowRecord,
                            reason: Optional[str] = None) -> None:
        """Demote the flow's rules to the plain rows they were
        installed from: its keys go back to the controller."""
        if not record.installed:
            return
        record.installed = False
        rules = self.flowtable.rules(record)
        for entry in rules:
            self.flowtable.bind(entry.demoted())
        if rules and self.journal.enabled:
            payload = dict(flow=self._trace_ids.get(record.mux_port),
                           vlan=record.vlan, handlers=len(rules))
            if reason is not None:
                payload["reason"] = reason
            self.journal.record("fastpath.evict", **payload)
        if rules:
            self.flowtable.sync_metrics()

    def _fastpath_timeout(self, entry: FlowEntry, now: float) -> None:
        """An entry's idle or hard timeout has passed: demote the whole
        flow's rules (both directions age together, like
        expire_idle_flows) and journal the reason.  The next packet
        re-installs via the table-miss path if the flow is still live."""
        reason = entry.timeout_reason(now)
        if reason == "hard":
            self.flowtable.timeout_hard += 1
        else:
            self.flowtable.timeout_idle += 1
        self._fastpath_uninstall(entry.record, reason=reason)

    def _client_plan(self, record: FlowRecord):
        """(emit_code, emit_arg) toward the flow's originator."""
        if record.inmate_is_originator:
            return EMIT_VLAN, record.vlan
        # Inbound flow: the originator lives outside.
        return EMIT_UPSTREAM, None

    def _dst_plan(self, record: FlowRecord):
        """How packets reach the enforced destination, as ``(src_ip,
        dst_ip, emit_code, emit_arg)`` — a function of what the verdict
        and ``_classify_destination`` fixed on the record.  Everything
        that addresses the destination leg (handoff replay, the
        compiled entries, the return alias) reads this one plan."""
        orig = record.orig
        if record.dst_is_inmate_vlan is not None:
            src_ip, emit = orig.orig_ip, (EMIT_VLAN, record.dst_is_inmate_vlan)
        elif record.dst_ip.value in self.service_ips:
            src_ip, emit = orig.orig_ip, (EMIT_SERVICE, record.dst_ip)
        else:
            src_ip = record.nat_global or orig.orig_ip
            emit = (EMIT_UPSTREAM, None)
        if record.spoof_preserve:
            # Physically delivered to the sink, but still addressed to
            # (and answered from) the original destination.
            return (orig.orig_ip, orig.resp_ip) + emit
        return (src_ip, record.dst_ip) + emit

    def _dst_alias(self, record: FlowRecord) -> tuple:
        """The flow key of return traffic from the enforced
        destination: its plan's addresses, reversed."""
        src_ip, dst_ip, _code, _arg = self._dst_plan(record)
        return (dst_ip.value, record.dst_port, src_ip.value,
                record.orig.orig_port, record.orig.proto)

    def _row(self, record: FlowRecord, key: tuple, leg: int, kind: int,
             out_sport: int, out_dport: int, src_ip, dst_ip, emit,
             shaped: bool = False, **translation) -> Rewrite:
        """One leg's rewrite for ``record`` under flow key ``key``,
        holding its resolved egress; ``shaped`` puts the flow's LIMIT
        shaper, if it has one, in front of it."""
        emit_code, emit_arg = emit
        egress = self._egress_for(emit_code, emit_arg)
        shaped = shaped and record.shaper is not None
        if shaped:
            egress = Shaped(self.sim, record.shaper, egress)
        return Rewrite(key, record, leg, kind, out_sport, out_dport, src_ip,
                       dst_ip, egress, emit_code=emit_code,
                       emit_arg=emit_arg, shaped=shaped, **translation)

    def _compile_endpoint(self, record: FlowRecord):
        """Entries for handed-off flows (FORWARD/LIMIT/REDIRECT/
        REFLECT over TCP, plus all UDP endpoint verdicts)."""
        orig = record.orig
        src_ip, dst_ip, dst_code, dst_arg = self._dst_plan(record)
        if orig.proto == PROTO_TCP:
            # ISN delta after handoff (Figure 5): the client handshook
            # against the containment server, so it acks in that ISN
            # space and the destination's sequence numbers must be
            # shifted into it.  The return ack_delta is the one
            # docs/VERIFICATION.md gap 7 is about.
            isn_delta = record.isn_delta
            c2d, d2c = ACT_TCP_C2D, ACT_TCP_D2C
            c2d_shift = {"ack_delta": (-isn_delta) & 0xFFFFFFFF}
            d2c_shift = {"seq_delta": isn_delta,
                         "ack_delta": (-record.c2s_inj) & 0xFFFFFFFF}
        else:
            c2d, d2c = ACT_UDP_C2D, ACT_UDP_D2C
            c2d_shift = d2c_shift = {}
        return [
            self._row(record, record.orig_key, LEG_ORIGINATOR, c2d,
                      orig.orig_port, record.dst_port, src_ip, dst_ip,
                      (dst_code, dst_arg), shaped=True, **c2d_shift),
            self._row(record, self._dst_alias(record), LEG_RETURN, d2c,
                      orig.resp_port, orig.orig_port,
                      orig.resp_ip, orig.orig_ip,
                      self._client_plan(record), shaped=True, **d2c_shift),
        ]

    def _compile_rewrite(self, record: FlowRecord):
        """The coupled rows as rules: a REWRITE flow stays coupled to
        its containment server for life.  (Return datagrams carry a
        response shim each and must be parsed, so a UDP flow's
        CS->client direction stays with the controller.)"""
        rows = [self._c2cs_row(record)]
        if record.orig.proto == PROTO_TCP:
            rows.append(self._cs_row(record, record.cs_ip))
        return rows

    def _c2cs_row(self, record: FlowRecord) -> Rewrite:
        """Originator -> the flow's containment server: the mux port,
        and ``SEQ += |REQ SHIM|`` once the request shim has gone in
        (for a datagram the shim is a prefix of every payload).  Emits
        on EMIT_CS (the shim-link fault seam is re-read per packet) and
        is never shaped."""
        orig = record.orig
        cs_ip = record.cs_ip
        if orig.proto == PROTO_UDP:
            kind, port = ACT_UDP_C2CS, self.cs_udp_port
            translation = {"payload_prefix": RequestShim(
                orig, record.vlan, record.nonce_port).to_bytes()}
        else:
            kind, port = ACT_TCP_C2CS, self.cs_tcp_port
            translation = {"seq_delta": record.c2s_inj,
                           "ack_delta": record.s2c_rem}
        return Rewrite(record.orig_key, record, LEG_ORIGINATOR, kind,
                       record.mux_port, port, orig.orig_ip, cs_ip,
                       self._cs_links[cs_ip.value], emit_code=EMIT_CS,
                       emit_arg=cs_ip, **translation)

    def _cs_row(self, record: FlowRecord, cs_ip: IPv4Address) -> Row:
        """Containment server ``cs_ip`` -> originator, on the flow's mux
        port: ``SEQ -= |RSP SHIM|`` once the response shim has come
        out, the request shim out of the ack.  A datagram from the
        server is parsed, never relayed: its row names the leg only."""
        orig = record.orig
        if orig.proto == PROTO_UDP:
            return Row((cs_ip.value, self.cs_udp_port, orig.orig_ip.value,
                        record.mux_port, PROTO_UDP), record, LEG_CS)
        return self._row(
            record, (cs_ip.value, self.cs_tcp_port, orig.orig_ip.value,
                     record.mux_port, PROTO_TCP), LEG_CS, ACT_TCP_CS2C,
            orig.resp_port, orig.orig_port, orig.resp_ip, orig.orig_ip,
            self._client_plan(record), shaped=True,
            seq_delta=(-record.s2c_rem) & 0xFFFFFFFF,
            ack_delta=(-record.c2s_inj) & 0xFFFFFFFF)

    def _compile_dropped(self, record: FlowRecord):
        """Terminal-phase rule: touch and swallow (no egress), except
        TCP SYNs which may be a new incarnation of the tuple."""
        orig = record.orig
        kind = ACT_DROP_TCP if orig.proto == PROTO_TCP else ACT_DROP_UDP
        return [Rewrite(record.orig_key, record, LEG_ORIGINATOR, kind,
                        orig.orig_port, orig.resp_port, orig.orig_ip,
                        orig.resp_ip)]

    # ------------------------------------------------------------------
    # Response shim parsing and verdict application
    # ------------------------------------------------------------------
    def _try_parse_response_shim(self, record: FlowRecord) -> None:
        length = peek_length(bytes(record.shim_buffer[:8])) \
            if len(record.shim_buffer) >= 8 else None
        if length is None or len(record.shim_buffer) < length:
            return
        blob = bytes(record.shim_buffer[:length])
        leftover = bytes(record.shim_buffer[length:])
        record.shim_buffer.clear()
        try:
            shim = ResponseShim.from_bytes(blob, proto=record.orig.proto)
        except ShimError:
            self._apply_decision(record, ContainmentDecision.drop(
                policy="shim-error", annotation="malformed response shim"))
            return
        record.s2c_rem = length
        self.counters["shims_stripped"] += 1
        self._m_shims_stripped.inc()
        if self.resilience is not None:
            self.resilience.note_verdict(record.cs_ip)
        decision = shim.to_decision(record.orig)
        self._apply_decision(record, decision, leftover)

    def _record_verdict(self, record: FlowRecord,
                        decision: ContainmentDecision) -> None:
        """Bookkeeping at verdict time: count the verdict, observe the
        shim RTT histogram, journal ``verdict.applied``."""
        proto = "tcp" if record.orig.proto == PROTO_TCP else "udp"
        verdict = decision.verdict.label
        cell_key = (record.vlan, verdict, proto)
        cell = self._verdict_cells.get(cell_key)
        if cell is None:
            cell = self._m_verdicts.bind(
                subfarm=self.name, vlan=str(record.vlan),
                verdict=verdict, proto=proto)
            self._verdict_cells[cell_key] = cell
        cell.inc()
        self._h_shim_rtt.observe(self.sim.now - record.created_at)
        if self.journal.enabled:
            self.journal.record(
                "verdict.applied",
                flow=self._trace_ids.get(record.mux_port),
                vlan=record.vlan, verdict=verdict, proto=proto,
                policy=decision.policy,
                annotation=decision.annotation or "")

    def _apply_decision(self, record: FlowRecord,
                        decision: ContainmentDecision,
                        leftover: bytes = b"") -> None:
        """Decide and install: record the verdict, fix the flow's
        forwarding, compile it into table entries."""
        record.decision = decision
        self.flow_log.append(FlowLogEntry(self.sim.now, record))
        self._record_verdict(record, decision)
        verdict = decision.verdict
        tcp = record.orig.proto == PROTO_TCP

        if verdict & Verdict.REWRITE:
            # Content control: stay coupled to the containment server —
            # the coupled rows, as the record stands now (the response
            # shim out, maybe a shaper in), become its rules.
            record.phase = FlowPhase.ENFORCED
            record.udp_pending = None
            if tcp and decision.rate is not None:
                record.shaper = TokenBucket(decision.rate)
            if tcp:
                self._bind_cs_legs(record)
            if leftover and tcp:
                self._deliver_cs_content(record, leftover)
            elif leftover:
                self._deliver_udp_to_client(record, leftover)
            self._fastpath_install(record)
            return

        endpoint = verdict.endpoint_op
        if verdict & Verdict.LIMIT and decision.rate is not None:
            record.shaper = TokenBucket(decision.rate)
        if tcp:
            # The server leaves the path, but what it still sends on
            # the flow's mux port keeps its translation (the response
            # shim is out now) until the flow's rows are reclaimed.
            self._bind_cs_legs(record)
        if endpoint == Verdict.DROP:
            record.phase = FlowPhase.DROPPED
            record.udp_pending = None
            self._teardown_cs_leg(record)
            self._synthesize_client_rst(record)
            self._fastpath_install(record)
            return

        # FORWARD / LIMIT / REDIRECT / REFLECT: resolve destination,
        # hand the flow off, and take the containment server out of the
        # path.
        if endpoint in (Verdict.REDIRECT, Verdict.REFLECT):
            record.dst_ip = decision.target_ip
            record.dst_port = (
                decision.target_port
                if decision.target_port is not None
                else record.orig.resp_port
            )
            # Reflection preserves the spoofed original destination
            # address so the sink sees what the specimen dialled (TCP
            # only: a reflected datagram is readdressed to the sink).
            record.spoof_preserve = tcp and endpoint == Verdict.REFLECT
        else:
            if record.inmate_is_originator:
                record.dst_ip = record.orig.resp_ip
                record.dst_port = record.orig.resp_port
            else:
                # Inbound flow: the enforced destination is the inmate.
                record.dst_ip = self.nat.internal_for(record.vlan)
                record.dst_port = record.orig.resp_port

        self._classify_destination(record)
        self._teardown_cs_leg(record)
        # The destination's return alias, to the controller until the
        # handoff completes and the rules go in.
        self.flowtable.bind(Row(self._dst_alias(record), record, LEG_RETURN))
        if tcp:
            self._begin_handoff(record)
        else:
            record.phase = FlowPhase.ENFORCED
            while record.udp_pending:
                self._send_to_dst(record, record.udp_pending.popleft().rebind(
                    record.orig.orig_port, record.dst_port))
            record.udp_pending = None
            self._fastpath_install(record)

    def _classify_destination(self, record: FlowRecord) -> None:
        """Work out whether the enforced destination is an inmate, a
        subfarm service, or an external host (and NAT accordingly)."""
        assert record.dst_ip is not None and record.dst_port is not None
        record.dst_is_inmate_vlan = None
        vlan = self.bridge.vlan_for_ip(record.dst_ip)
        if vlan is None:
            vlan = self.nat.vlan_for_internal(record.dst_ip)
        if vlan is not None:
            record.dst_is_inmate_vlan = vlan
            return
        if record.dst_ip.value in self.service_ips:
            return
        # External: the inmate-side endpoint needs its global address.
        if record.inmate_is_originator:
            record.nat_global = self.nat.global_for(record.vlan)

    # ------------------------------------------------------------------
    # Handoff to the enforced destination
    # ------------------------------------------------------------------
    def _begin_handoff(self, record: FlowRecord) -> None:
        record.phase = FlowPhase.HANDOFF
        self.counters["handoffs"] += 1
        self._m_handoffs.inc()
        syn = TCPSegment(
            sport=record.orig.orig_port, dport=record.dst_port,
            seq=record.client_isn, flags=SYN,
        )
        self._send_to_dst(record, syn)

    def _complete_handoff(self, record: FlowRecord) -> None:
        record.phase = FlowPhase.ENFORCED
        ack = seq_add(record.dst_isn, 1)

        def replay(seq: int, flags: int, payload: bytes = b"") -> None:
            self._send_to_dst(record, TCPSegment(
                sport=record.orig.orig_port, dport=record.dst_port,
                seq=seq, ack=ack, flags=flags, payload=payload))

        seq = seq_add(record.client_isn, 1)
        replay(seq, ACK)
        buffered = bytes(record.client_buffer)
        record.client_buffer.clear()
        offset = 0
        while offset < len(buffered):
            chunk = buffered[offset:offset + 1460]
            offset += len(chunk)
            flags = ACK | PSH
            fin_here = record.client_fin and offset >= len(buffered)
            if fin_here:
                flags |= FIN
                record.client_fin_relayed = True
            replay(seq, flags, chunk)
            seq = seq_add(seq, len(chunk))
        if record.client_fin and not record.client_fin_relayed:
            record.client_fin_relayed = True
            replay(seq, FIN | ACK)
        self._fastpath_install(record)

    # ------------------------------------------------------------------
    # Emission toward each party
    # ------------------------------------------------------------------
    def _deliver_cs_content(self, record: FlowRecord, payload: bytes) -> None:
        """Deliver REWRITE content that shared a segment with the
        response shim."""
        segment = TCPSegment(
            sport=record.orig.resp_port, dport=record.orig.orig_port,
            seq=seq_add(record.cs_isn, 1),
            ack=self._client_snd_nxt(record),
            flags=ACK | PSH, payload=payload,
        )
        record.s2c_bytes += len(payload)
        self._to_client(record, segment)

    def _client_snd_nxt(self, record: FlowRecord) -> int:
        return seq_add(record.client_isn, 1 + record.c2s_bytes
                       + (1 if record.client_fin else 0))

    def _send_to_dst(self, record: FlowRecord, transport) -> None:
        """Emit a router-built segment or datagram (handoff replay,
        a datagram held for the verdict) along the destination plan."""
        src_ip, dst_ip, code, arg = self._dst_plan(record)
        self.counters["packets_relayed"] += 1
        if self._live:
            self._m_packets.inc()
        self._send((code, arg), IPv4Packet(src_ip, dst_ip, transport),
                   record.shaper)

    # ------------------------------------------------------------------
    # REWRITE nonce leg (containment server connecting onward)
    # ------------------------------------------------------------------
    def _open_nonce_leg(self, record: FlowRecord, packet: IPv4Packet) -> None:
        """The containment server opened an onward connection from the
        flow's nonce port: bind both directions, NATed so the real
        target sees the inmate's global address and original port, and
        run the packet through."""
        segment = packet.payload
        orig = record.orig
        if record.inmate_is_originator and record.nat_global is None:
            record.nat_global = self.nat.global_for(record.vlan)
        local = record.nat_global or orig.orig_ip
        target, cs_ip = packet.dst, packet.src
        out = self._row(
            record, (cs_ip.value, segment.sport, target.value,
                     segment.dport, PROTO_TCP), LEG_NONCE, ACT_TCP_CS2W,
            orig.orig_port, segment.dport, local, target,
            (EMIT_UPSTREAM, None))
        back = self._row(
            record, (target.value, segment.dport, local.value,
                     orig.orig_port, PROTO_TCP), LEG_RETURN, ACT_TCP_W2CS,
            segment.dport, segment.sport, target, record.cs_ip,
            (EMIT_CS, record.cs_ip))
        self.flowtable.bind(out)
        if back.key != record.resp_key:
            self.flowtable.bind(back)
        apply(self, out, packet, packet_in=False)

    # ------------------------------------------------------------------
    # UDP verdicts from the containment server
    # ------------------------------------------------------------------
    def _handle_cs_udp(self, record: FlowRecord, packet: IPv4Packet) -> None:
        payload = packet.udp.payload
        length = peek_length(payload)
        if length is None or len(payload) < length:
            return
        try:
            shim = ResponseShim.from_bytes(payload[:length], proto=PROTO_UDP)
        except ShimError:
            return
        leftover = payload[length:]
        self.counters["shims_stripped"] += 1
        self._m_shims_stripped.inc()
        if self.resilience is not None:
            self.resilience.note_verdict(record.cs_ip)
        if record.decision is None:
            self._apply_decision(record, shim.to_decision(record.orig),
                                 leftover)
        elif leftover and record.decision.verdict & Verdict.REWRITE:
            self._deliver_udp_to_client(record, leftover)

    def _deliver_udp_to_client(self, record: FlowRecord, payload: bytes) -> None:
        record.s2c_bytes += len(payload)
        self._to_client(record, UDPDatagram(
            record.orig.resp_port, record.orig.orig_port, payload))

    # ------------------------------------------------------------------
    # Teardown helpers
    # ------------------------------------------------------------------
    def _teardown_cs_leg(self, record: FlowRecord) -> None:
        """Abort the containment-server leg after an endpoint verdict
        (the server is out of the path from here on)."""
        if record.orig.proto != PROTO_TCP or record.cs_isn is None:
            return
        self._to_cs(
            record,
            seq_add(record.client_isn, 1 + record.c2s_inj
                    + len(record.client_buffer) + record.c2s_bytes),
            seq_add(record.cs_isn, 1 + record.s2c_rem), RST | ACK)

    def _synthesize_client_rst(self, record: FlowRecord) -> None:
        if record.orig.proto != PROTO_TCP:
            return
        seq = seq_add(record.cs_isn, 1) if record.cs_isn is not None else 0
        self._to_client(record, TCPSegment(
            sport=record.orig.resp_port, dport=record.orig.orig_port,
            seq=seq, ack=self._client_snd_nxt(record), flags=RST | ACK))

    def _abort_flow(self, record: FlowRecord, notify_client: bool) -> None:
        if record.phase in (FlowPhase.CLOSED, FlowPhase.DROPPED):
            return
        if record.phase in _LIVE_PHASES:
            self._teardown_cs_leg(record)
        if notify_client:
            self._synthesize_client_rst(record)
        self._fastpath_uninstall(record)
        record.phase = FlowPhase.CLOSED

    # ------------------------------------------------------------------
    # Service-originated outbound (control-network NAT)
    # ------------------------------------------------------------------
    def _service_outbound(self, packet: IPv4Packet) -> None:
        if self.control_pool is None:
            return
        global_ip = self._service_nat.get(packet.src.value)
        if global_ip is None:
            global_ip = self.control_pool.allocate()
            self._service_nat[packet.src.value] = global_ip
            self._service_nat_rev[global_ip.value] = packet.src
            self._demux[global_ip.value] = self
        self.egress.upstream_egress.send(
            _readdressed(packet, src=global_ip))

    # ------------------------------------------------------------------
    # Inmate life-cycle hooks
    # ------------------------------------------------------------------
    def _evict(self, record: FlowRecord) -> None:
        """Give a record's rows and ports back so its tuples can be
        reused."""
        if self.journal.enabled:
            flow_id = self._trace_ids.get(record.mux_port)
            if flow_id is not None:
                self.journal.record("flow.evicted", flow=flow_id,
                                    vlan=record.vlan,
                                    phase=record.phase.value)
        self._fastpath_uninstall(record)
        self.flowtable.unbind(record)
        self._by_mux.pop(record.mux_port, None)
        self._by_nonce.pop(record.nonce_port, None)
        self._trace_ids.pop(record.mux_port, None)
        if record.phase not in (FlowPhase.DROPPED, FlowPhase.REFUSED):
            record.phase = FlowPhase.CLOSED

    def _arm_housekeeping(self) -> None:
        if self._housekeeping_armed:
            return
        self._housekeeping_armed = True
        self.sim.schedule(self.housekeeping_interval, self._housekeep,
                          label="flow-housekeeping")

    def _housekeep(self) -> None:
        self._housekeeping_armed = False
        self.sweep_flowtable()
        self.expire_idle_flows(self.flow_idle_timeout)
        if self._by_mux:
            self._arm_housekeeping()

    def sweep_flowtable(self) -> int:
        """Evict flow-table entries whose idle/hard timeout has passed.

        The probe only ages entries that traffic still touches; this
        sweep (riding the existing housekeeping event, so the event
        schedule is unchanged) reclaims rules for flows that went
        quiet.  Returns the number of flows whose rules were evicted.
        """
        table = self.flowtable
        if not len(table):
            return 0
        now = self.sim.now
        swept = 0
        for entry in table.expired_entries(now):
            # A flow's first expired entry evicts all of its rules, so
            # re-check liveness before timing out the next one.
            if table.entries.get(entry.key) is entry:
                self._fastpath_timeout(entry, now)
                swept += 1
        return swept

    def expire_idle_flows(self, max_idle: float) -> int:
        """Evict every record idle longer than ``max_idle`` that still
        holds rows and ports — a dropped or aborted flow as much as a
        live one (afterwards a SYN on the tuple is a new flow and gets
        its verdict again; anything else is dropped as mid-flow).

        Long deployments (the paper ran for six years) must not grow
        the flow table without bound; run this periodically.  Records
        stay in the history list for reporting — only the packet-path
        lookup state is released.
        """
        expired = 0
        horizon = self.sim.now - max_idle
        for record in list(self._by_mux.values()):
            if record.last_activity <= horizon:
                self._evict(record)
                expired += 1
        return expired

    def forget_inmate(self, vlan: int) -> None:
        """Clear state when an inmate is reverted or terminated."""
        self.safety.reset_inmate(vlan)
        self.bridge.forget(vlan)
        for record in self._live_flows():
            if record.vlan == vlan:
                self._evict(record)

    def __repr__(self) -> str:
        return f"<SubfarmRouter {self.name} vlans={len(self.vlan_ids)}>"
