"""The gateway device: GQ's single chokepoint (Figure 1).

Owns the physical attachment points — the 802.1Q trunk to the inmate
network, the upstream interface to the outside world, and one port per
subfarm service host — and demultiplexes frames to the per-subfarm
packet routers.  Also performs proxy ARP everywhere (it is every
inmate's and every service's default gateway) and runs the system-wide
upstream trace capture (§5.6).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.gateway.router import SubfarmRouter
from repro.net.addresses import IPv4Address, IPv4Network, MacAddress
from repro.net.arp import ETHERTYPE_ARP, OP_REQUEST, ArpMessage
from repro.net.capture import PacketTrace
from repro.net.link import Link, Port, PortMode, Switch
from repro.net.packet import ETHERTYPE_IPV4, EthernetFrame, IPv4Packet
from repro.net.router import Router
from repro.net.host import Host
from repro.sim.engine import Simulator


class Gateway:
    """Central gateway hosting the subfarm packet routers."""

    def __init__(self, sim: Simulator, name: str = "gateway") -> None:
        self.sim = sim
        self.name = name
        self.mac = MacAddress(0x02_60_51_00_00_01)  # "GQ"

        self.trunk_port = Port(self, name=f"{name}.trunk")
        self.upstream_port = Port(self, name=f"{name}.upstream")
        self._service_ports: Dict[IPv4Address, Port] = {}
        self._service_macs: Dict[IPv4Address, MacAddress] = {}
        self._service_routers: Dict[IPv4Address, SubfarmRouter] = {}
        self._port_routers: Dict[Port, SubfarmRouter] = {}
        self._port_kinds: Dict[Port, str] = {
            self.trunk_port: "trunk",
            self.upstream_port: "upstream",
        }

        self.routers: List[SubfarmRouter] = []
        self._router_by_vlan: Dict[int, SubfarmRouter] = {}
        self.upstream_trace = PacketTrace(f"{name}-upstream")
        self.frames_received = 0
        self.frames_unroutable = 0

        telemetry = sim.telemetry
        self._m_frames = telemetry.counter(
            "gw.frames.received", "Frames hitting the gateway").bind()
        self._m_unroutable = telemetry.counter(
            "gw.frames.unroutable", "Frames with no owning subfarm").bind()
        self._m_floods = telemetry.counter(
            "gw.bridge.floods",
            "VLAN deliveries broadcast for lack of a learned MAC").bind()

        # GRE tunnels connecting donated address space (§7.2).
        self.tunnels: List = []

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
        port = Port(self, name=f"{self.name}.svc.{host.name}")
        Link(self.sim, host.attach_port(), port, latency)
        self._service_ports[host.ip] = port
        self._service_macs[host.ip] = host.mac
        self._port_kinds[port] = "service"
        self._service_routers[host.ip] = router
        self._port_routers[port] = router
        host.configure(host.ip, gateway_ip=router.gateway_ip)
        router.register_service(host.ip, trusted=trusted)

    def add_router(self, router: SubfarmRouter) -> None:
        self.routers.append(router)
        for vlan in router.vlan_ids:
            if vlan in self._router_by_vlan:
                raise ValueError(f"VLAN {vlan} already owned by a subfarm")
            self._router_by_vlan[vlan] = router

    def router_for_vlan(self, vlan: int) -> Optional[SubfarmRouter]:
        return self._router_by_vlan.get(vlan)

    # ------------------------------------------------------------------
    # Emission callbacks handed to routers
    # ------------------------------------------------------------------
    def send_to_vlan(self, vlan: int, packet: IPv4Packet) -> None:
        router = self._router_by_vlan.get(vlan)
        dst_mac = MacAddress.broadcast()
        if router is not None:
            learned = router.bridge.mac_for(vlan)
            if learned is not None:
                dst_mac = learned
            else:
                self._m_floods.inc()
        frame = EthernetFrame(self.mac, dst_mac, packet, vlan=vlan,
                              ethertype=ETHERTYPE_IPV4)
        if router is not None:
            router.trace.capture(self.sim.now, frame, point="inmate")
        self.trunk_port.send(frame)

    def send_to_service(self, service_ip: IPv4Address,
                        packet: IPv4Packet) -> None:
        port = self._service_ports.get(service_ip)
        if port is None:
            self.frames_unroutable += 1
            self._m_unroutable.inc()
            return
        mac = self._service_macs[service_ip]
        frame = EthernetFrame(self.mac, mac, packet,
                              ethertype=ETHERTYPE_IPV4)
        self._service_routers[service_ip].trace.capture(
            self.sim.now, frame, point="containment")
        port.send(frame)

    def send_upstream(self, packet: IPv4Packet) -> None:
        # Egress sourced from tunneled (donated) space returns through
        # its tunnel so the prefix stays path-symmetric.
        for tunnel in self.tunnels:
            if tunnel.carries(packet.src):
                packet = tunnel.encapsulate(packet)
                break
        frame = EthernetFrame(self.mac, MacAddress.broadcast(), packet,
                              ethertype=ETHERTYPE_IPV4)
        self.upstream_trace.capture(self.sim.now, frame, point="upstream-out")
        self.upstream_port.send(frame)

    # ------------------------------------------------------------------
    # Frame reception
    # ------------------------------------------------------------------
    def receive_frame(self, frame: EthernetFrame, port: Port) -> None:
        self.frames_received += 1
        self._m_frames.inc()
        kind = self._port_kinds.get(port)
        if frame.ethertype == ETHERTYPE_ARP:
            self._proxy_arp(frame, port)
            return
        if kind == "trunk":
            if frame.vlan is None:
                return
            router = self._router_by_vlan.get(frame.vlan)
            if router is None:
                self.frames_unroutable += 1
                self._m_unroutable.inc()
                return
            router.inmate_frame(frame, frame.vlan)
        elif kind == "upstream":
            self.upstream_trace.capture(self.sim.now, frame,
                                        point="upstream-in")
            if not isinstance(frame.payload, IPv4Packet):
                return
            packet = frame.payload
            for tunnel in self.tunnels:
                inner = tunnel.try_decapsulate(packet)
                if inner is not None:
                    packet = inner
                    break
            for router in self.routers:
                if router.owns_global(packet.dst):
                    router.upstream_packet(packet)
                    return
            self.frames_unroutable += 1
            self._m_unroutable.inc()
        elif kind == "service":
            router = self._port_routers[port]
            router.trace.capture(self.sim.now, frame, point="containment")
            router.service_frame(frame)

    def receive_frame_batch(self, frames: List[EthernetFrame],
                            port: Port) -> None:
        """Coalesced delivery from a batching port (Port.coalesce).

        Trunk frames are grouped into contiguous same-router runs and
        handed to the router's batched ingest; every other frame takes
        the scalar path in arrival order, so output is byte-identical
        to per-frame delivery.
        """
        if self._port_kinds.get(port) != "trunk":
            for frame in frames:
                self.receive_frame(frame, port)
            return
        run_router = None
        run_items = None
        for frame in frames:
            self.frames_received += 1
            self._m_frames.inc()
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
                    self.frames_unroutable += 1
                    self._m_unroutable.inc()
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

    def _proxy_arp(self, frame: EthernetFrame, port: Port) -> None:
        """Answer every ARP request with our own MAC — the gateway is
        the next hop for everything."""
        try:
            message = ArpMessage.from_bytes(bytes(frame.payload))
        except ValueError:
            return
        if message.op != OP_REQUEST:
            return
        # Learn the inmate while we are at it.
        if self._port_kinds.get(port) == "trunk" and frame.vlan is not None:
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
