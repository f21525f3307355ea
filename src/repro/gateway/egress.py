"""Resolved egress: where a packet leaves the gateway (Figure 1).

One :class:`Egress` object per emission target — the upstream
interface, each subfarm service host, each inmate VLAN — owns
everything between "this IPv4 packet goes *there*" and ``Port.send``:
the port, destination-MAC resolution, the 802.1Q tag, and the trace and
capture point the frame is recorded at.  A match-action datapath
resolves its output when the rule is installed, not per packet (the
``flow_mod`` + ``ofp_action_output`` idiom): a ``FlowEntry`` holds its
egress from compile time, the controller's own emissions and
``Gateway.send_to_*`` look theirs up, and all of them end in the same
``send`` — there is no second emission implementation to bypass it
with.  Whoever hands a router its egress side (the ``Gateway``; a test
harness) provides ``vlan_egress(vlan)``, ``service_egress(ip)``,
``upstream_egress`` and ``egresses()``.

What may stand between a rule and its egress is a wrapper with the same
``send(packet)``: the flow's LIMIT shaper (:class:`Shaped`) and the
shim-link fault view (:class:`ShimLink`).

Per-packet instrument sites hold their bound cell, or ``None`` while
telemetry is off, so a disabled run makes no instrument call at all
(docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from typing import Callable, List

from repro.gateway.flowtable import EMIT_SERVICE, EMIT_UPSTREAM, EMIT_VLAN
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.packet import ETHERTYPE_IPV4, EthernetFrame, IPv4Packet

_BROADCAST = MacAddress.broadcast()

Sink = Callable[[IPv4Packet], None]


class Egress:
    """One emission target.  ``code``/``arg`` name it in flow-table
    terms (``flowtable.EMIT_*``), as the batched datapath's output rows
    do."""

    code: int
    arg: object = None

    def send(self, packet: IPv4Packet) -> None:
        raise NotImplementedError

    def divert(self, sink: Sink) -> None:
        """Hand every packet to ``sink`` instead of the wire until
        :meth:`restore` — how ``SubfarmRouter.ingest_batch`` collects
        what its scalar rows emit.  Costs the undiverted path nothing:
        the sink shadows ``send`` on this instance only."""
        self.send = sink

    def restore(self) -> None:
        del self.send


class UpstreamEgress(Egress):
    """The upstream interface: everything bound for the outside world,
    recorded in the system-wide upstream trace (§5.6)."""

    code = EMIT_UPSTREAM

    def __init__(self, sim, port, mac: MacAddress, trace,
                 tunnels: List) -> None:
        self._sim = sim
        self._port = port
        self._mac = mac
        self._trace = trace
        # The gateway's own list: tunnels added later are seen here.
        self._tunnels = tunnels

    def send(self, packet: IPv4Packet) -> None:
        if self._tunnels:
            # Egress sourced from tunneled (donated) space returns
            # through its tunnel so the prefix stays path-symmetric.
            for tunnel in self._tunnels:
                if tunnel.carries(packet.src):
                    packet = tunnel.encapsulate(packet)
                    break
        frame = EthernetFrame(self._mac, _BROADCAST, packet, None,
                              ETHERTYPE_IPV4)
        self._trace.capture(self._sim.now, frame, "upstream-out")
        self._port.send(frame)


class ServiceEgress(Egress):
    """One subfarm service host on its dedicated gateway port."""

    code = EMIT_SERVICE

    def __init__(self, sim, port, mac: MacAddress, host_ip: IPv4Address,
                 host_mac: MacAddress, trace) -> None:
        self._sim = sim
        self._port = port
        self._mac = mac
        self.arg = host_ip
        self._host_mac = host_mac
        self._trace = trace

    def send(self, packet: IPv4Packet) -> None:
        frame = EthernetFrame(self._mac, self._host_mac, packet, None,
                              ETHERTYPE_IPV4)
        self._trace.capture(self._sim.now, frame, "containment")
        self._port.send(frame)


class VlanEgress(Egress):
    """One inmate VLAN on the trunk: addressed to the MAC the subfarm's
    bridge learned there, flooded until it has, and recorded in the
    subfarm's inmate-side trace.

    Built without a ``router`` (or after :meth:`retire`) it is a VLAN
    no subfarm owns: frames flood unrecorded, as they always have.
    """

    code = EMIT_VLAN

    def __init__(self, sim, port, mac: MacAddress, vlan: int,
                 router=None, floods=None) -> None:
        self._sim = sim
        self._port = port
        self._mac = mac
        self.arg = self._vlan = vlan
        # Bound once, probed per packet (LearningBridge.entries).
        self._learned = router.bridge.entries if router is not None else {}
        self._trace = router.trace if router is not None else None
        self._floods = floods if router is not None else None

    def retire(self) -> None:
        """The VLAN was unbound; rules still pointing here keep a
        working egress."""
        self._learned = {}
        self._trace = None
        self._floods = None

    def send(self, packet: IPv4Packet) -> None:
        entry = self._learned.get(self._vlan)
        if entry is not None:
            dst_mac = entry.mac
        else:
            dst_mac = _BROADCAST
            if self._floods is not None:
                self._floods.inc()
        frame = EthernetFrame(self._mac, dst_mac, packet, self._vlan,
                              ETHERTYPE_IPV4)
        trace = self._trace
        if trace is not None:
            trace.capture(self._sim.now, frame, "inmate")
        self._port.send(frame)


class Unroutable(Egress):
    """No such service host: count the packet and drop it."""

    code = EMIT_SERVICE

    def __init__(self, note_unroutable: Callable[[], None]) -> None:
        self._note = note_unroutable

    def send(self, packet: IPv4Packet) -> None:
        self._note()


# ----------------------------------------------------------------------
# Wrappers on the one path
# ----------------------------------------------------------------------
class Shaped:
    """A flow's LIMIT shaper in front of its egress: a packet the token
    bucket holds back leaves ``delay`` virtual seconds later, through
    whatever the egress is by then."""

    __slots__ = ("_sim", "_shaper", "_egress")

    def __init__(self, sim, shaper, egress) -> None:
        self._sim = sim
        self._shaper = shaper
        self._egress = egress

    def send(self, packet: IPv4Packet) -> None:
        delay = self._shaper.delay_for(self._sim.now,
                                       40 + len(packet.payload.payload))
        if delay > 0:
            self._sim.schedule(delay, self._release, packet,
                               label="limit-shaper")
        else:
            self._egress.send(packet)

    def _release(self, packet: IPv4Packet) -> None:
        self._egress.send(packet)


class ShimLink:
    """The shim link toward one containment server: its service egress
    behind the router's fault view.  ``router.shim_link_faults`` is
    re-read per packet, so a fault plane installed after a REWRITE
    flow's rules were compiled still sees the flow."""

    __slots__ = ("_router", "_cs_ip", "_egress")

    def __init__(self, router, cs_ip: IPv4Address, egress) -> None:
        self._router = router
        self._cs_ip = cs_ip
        self._egress = egress

    def send(self, packet: IPv4Packet) -> None:
        faults = self._router.shim_link_faults
        if faults is None:
            self._egress.send(packet)
        else:
            faults.send(self._cs_ip, packet, self._deliver)

    def _deliver(self, packet: IPv4Packet) -> None:
        self._egress.send(packet)

