"""The gateway device: GQ's single chokepoint (Figure 1).

Owns the physical attachment points — the 802.1Q trunk to the inmate
network, the upstream interface to the outside world, and one port per
subfarm service host — and demultiplexes frames to the per-subfarm
packet routers.  Also performs proxy ARP everywhere (it is every
inmate's and every service's default gateway) and runs the system-wide
upstream trace capture (§5.6).

A frame crosses in a straight line (docs/PERFORMANCE.md, "The gateway
kernel"): the port it arrives on carries its role and router; an
upstream frame finds its subfarm in one farm-wide ``global address ->
router`` map kept exact where addresses are handed out; and a packet
leaves through the one :class:`~repro.gateway.egress.Egress` object of
its target.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.gateway.egress import (
    Egress,
    ServiceEgress,
    Unroutable,
    UpstreamEgress,
    VlanEgress,
)
from repro.gateway.router import SubfarmRouter
from repro.net.addresses import IPv4Address, IPv4Network, MacAddress
from repro.net.arp import ETHERTYPE_ARP, OP_REQUEST, ArpMessage
from repro.net.capture import PacketTrace
from repro.net.link import Link, Port, PortMode, Switch
from repro.net.packet import EthernetFrame, IPv4Packet
from repro.net.router import Router
from repro.net.host import Host
from repro.sim.engine import Simulator

# Port roles: how receive_frame treats what arrives there.
TRUNK = 0
UPSTREAM = 1
SERVICE = 2


class GatewayPort(Port):
    """A gateway attachment point: it knows its role and, for a service
    port, the subfarm router whose host it serves."""

    def __init__(self, owner: "Gateway", name: str, role: int,
                 router: Optional[SubfarmRouter] = None) -> None:
        super().__init__(owner, name)
        self.role = role
        self.router = router


class Gateway:
    """Central gateway hosting the subfarm packet routers."""

    def __init__(self, sim: Simulator, name: str = "gateway") -> None:
        self.sim = sim
        self.name = name
        self.mac = MacAddress(0x02_60_51_00_00_01)  # "GQ"

        self.trunk_port = GatewayPort(self, f"{name}.trunk", TRUNK)
        self.upstream_port = GatewayPort(self, f"{name}.upstream", UPSTREAM)

        self.routers: List[SubfarmRouter] = []
        self._router_by_vlan: Dict[int, SubfarmRouter] = {}
        # Upstream demux: every global address (as int) a subfarm
        # answers for -> its router.  The routers keep it exact
        # (SubfarmRouter.publish_globals): NAT bind/unbind and
        # service-NAT allocation write it, nothing scans.
        self._router_by_global: Dict[int, SubfarmRouter] = {}
        self.upstream_trace = PacketTrace(f"{name}-upstream")
        self.frames_received = 0
        self.frames_unroutable = 0
        # Bumped by the VLAN egresses of subfarm-owned VLANs.
        self.floods = 0

        telemetry = sim.telemetry
        telemetry.counter(
            "gw.frames.received", "Frames hitting the gateway"
        ).register(lambda: self.frames_received)
        telemetry.counter(
            "gw.frames.unroutable", "Frames with no owning subfarm"
        ).register(lambda: self.frames_unroutable)
        telemetry.counter(
            "gw.bridge.floods",
            "VLAN deliveries broadcast for lack of a learned MAC"
        ).register(lambda: self.floods)

        # GRE tunnels connecting donated address space (§7.2).
        self.tunnels: List = []

        # One egress per target, service hosts keyed on the address's
        # 32-bit value.
        self.upstream_egress = UpstreamEgress(
            sim, self.upstream_port, self.mac, self.upstream_trace,
            self.tunnels)
        self._service_egress: Dict[int, ServiceEgress] = {}
        self._vlan_egress: Dict[int, VlanEgress] = {}
        self._unroutable = Unroutable(self._note_unroutable)

    def add_tunnel(self, endpoint) -> None:
        self.tunnels.append(endpoint)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_trunk(self, switch: Switch, latency: float = 0.0002) -> None:
        """Connect the inmate-network switch via an all-VLAN trunk."""
        Link(self.sim, self.trunk_port,
             switch.attach_port(mode=PortMode.TRUNK), latency)

    def attach_upstream(self, backbone: Router,
                        global_networks: List[IPv4Network],
                        latency: float = 0.01) -> None:
        """Connect to the simulated Internet backbone."""
        backbone.attach_gateway(self.mac, global_networks,
                                self.upstream_port, latency)

    def attach_service_host(self, router: SubfarmRouter, host: Host,
                            trusted: bool = False,
                            latency: float = 0.0002) -> None:
        """Give a subfarm service host a dedicated gateway port."""
        if host.ip is None:
            raise ValueError("service hosts need static addresses")
        port = GatewayPort(self, f"{self.name}.svc.{host.name}", SERVICE,
                           router)
        Link(self.sim, host.attach_port(), port, latency)
        self._service_egress[host.ip.value] = ServiceEgress(
            self.sim, port, self.mac, host.mac, router.trace)
        host.configure(host.ip, gateway_ip=router.gateway_ip)
        router.register_service(host.ip, trusted=trusted)

    def add_router(self, router: SubfarmRouter) -> None:
        self.routers.append(router)
        for vlan in router.vlan_ids:
            self.bind_vlan(vlan, router)
        router.publish_globals(self._router_by_global)

    def bind_vlan(self, vlan: int, router: SubfarmRouter) -> None:
        """Hand an inmate VLAN to a subfarm: trunk frames tagged with it
        go to ``router``, and it gets its egress."""
        owner = self._router_by_vlan.get(vlan)
        if owner is router:
            return
        if owner is not None:
            raise ValueError(f"VLAN {vlan} already owned by a subfarm")
        self._router_by_vlan[vlan] = router
        self._vlan_egress[vlan] = VlanEgress(
            self.sim, self.trunk_port, self.mac, vlan, router, self)

    def unbind_vlan(self, vlan: int) -> None:
        """Take a VLAN back (its inmate is gone).  The addresses it held
        leave the upstream demux map when the subfarm's NAT table
        unbinds them."""
        self._router_by_vlan.pop(vlan, None)
        egress = self._vlan_egress.pop(vlan, None)
        if egress is not None:
            egress.retire()

    def router_for_vlan(self, vlan: int) -> Optional[SubfarmRouter]:
        return self._router_by_vlan.get(vlan)

    def router_for_global(self, address: IPv4Address
                          ) -> Optional[SubfarmRouter]:
        """The subfarm answering for a global (upstream) address."""
        return self._router_by_global.get(address.value)

    # ------------------------------------------------------------------
    # Egress: one object per target.  Routers resolve theirs through
    # vlan_egress / service_egress / upstream_egress — a rule once, at
    # compile time.  The send_to_* forms look the target up and
    # delegate to the same object: there is one emission
    # implementation.
    # ------------------------------------------------------------------
    def vlan_egress(self, vlan: int) -> Egress:
        egress = self._vlan_egress.get(vlan)
        if egress is None:
            # A VLAN no subfarm owns (never cached: it may be bound
            # later).
            egress = VlanEgress(self.sim, self.trunk_port, self.mac, vlan)
        return egress

    def service_egress(self, service_ip: IPv4Address) -> Egress:
        return self._service_egress.get(service_ip.value, self._unroutable)

    def send_to_vlan(self, vlan: int, packet: IPv4Packet) -> None:
        self.vlan_egress(vlan).send(packet)

    def send_to_service(self, service_ip: IPv4Address,
                        packet: IPv4Packet) -> None:
        self.service_egress(service_ip).send(packet)

    def send_upstream(self, packet: IPv4Packet) -> None:
        self.upstream_egress.send(packet)

    # ------------------------------------------------------------------
    # Frame reception
    # ------------------------------------------------------------------
    def _note_unroutable(self) -> None:
        self.frames_unroutable += 1

    def receive_frame(self, frame: EthernetFrame, port: GatewayPort) -> None:
        self.frames_received += 1
        if frame.ethertype == ETHERTYPE_ARP:
            self._proxy_arp(frame, port)
            return
        role = port.role
        if role == TRUNK:
            vlan = frame.vlan
            if vlan is None:
                return
            router = self._router_by_vlan.get(vlan)
            if router is None:
                self._note_unroutable()
                return
            router.inmate_frame(frame, vlan)
        elif role == UPSTREAM:
            self.upstream_trace.capture(self.sim.now, frame, "upstream-in")
            packet = frame.payload
            if not isinstance(packet, IPv4Packet):
                return
            if self.tunnels:
                for tunnel in self.tunnels:
                    inner = tunnel.try_decapsulate(packet)
                    if inner is not None:
                        packet = inner
                        break
            router = self._router_by_global.get(packet.dst.value)
            if router is None:
                self._note_unroutable()
                return
            router.upstream_packet(packet)
        else:
            router = port.router
            router.trace.capture(self.sim.now, frame, "containment")
            router.service_frame(frame)

    def receive_frame_batch(self, frames: List[EthernetFrame],
                            port: GatewayPort) -> None:
        """Coalesced delivery from the trunk (the one port a farm sets
        ``Port.coalesce`` on).

        Frames are grouped into contiguous same-router runs and handed
        to the router's batch ingest; an ARP or unroutable frame ends
        the run and is handled in place, so output is byte-identical to
        per-frame delivery.
        """
        run_router = None
        run_items = None
        for frame in frames:
            self.frames_received += 1
            if frame.ethertype == ETHERTYPE_ARP:
                if run_router is not None:
                    run_router.inmate_frame_batch(run_items)
                    run_router = None
                self._proxy_arp(frame, port)
                continue
            vlan = frame.vlan
            router = (self._router_by_vlan.get(vlan)
                      if vlan is not None else None)
            if router is None:
                if run_router is not None:
                    run_router.inmate_frame_batch(run_items)
                    run_router = None
                if vlan is not None:
                    self._note_unroutable()
                continue
            if router is run_router:
                run_items.append((frame, vlan))
                continue
            if run_router is not None:
                run_router.inmate_frame_batch(run_items)
            run_router = router
            run_items = [(frame, vlan)]
        if run_router is not None:
            run_router.inmate_frame_batch(run_items)

    def _proxy_arp(self, frame: EthernetFrame, port: GatewayPort) -> None:
        """Answer every ARP request with our own MAC — the gateway is
        the next hop for everything."""
        try:
            message = ArpMessage.from_bytes(bytes(frame.payload))
        except ValueError:
            return
        if message.op != OP_REQUEST:
            return
        # Learn the inmate while we are at it.
        if port.role == TRUNK and frame.vlan is not None:
            router = self._router_by_vlan.get(frame.vlan)
            if router is not None:
                ip = message.sender_ip if message.sender_ip.value else None
                router.bridge.learn(frame.vlan, message.sender_mac,
                                    self.sim.now, ip=ip)
        reply = ArpMessage.reply(self.mac, message.target_ip,
                                 message.sender_mac, message.sender_ip)
        out = EthernetFrame(self.mac, message.sender_mac, reply.to_bytes(),
                            vlan=frame.vlan, ethertype=ETHERTYPE_ARP)
        port.send(out)

    def __repr__(self) -> str:
        return f"<Gateway {self.name} subfarms={len(self.routers)}>"
