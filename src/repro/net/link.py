"""Links, ports, and VLAN-aware switches.

Topology model: devices expose ``receive_frame(frame, port)``; a
:class:`Link` joins two device ports and delivers frames after a fixed
latency on the virtual clock.  :class:`Switch` is an 802.1Q learning
switch with per-port access/trunk modes — the physical switches behind
GQ's gateway that enforce per-inmate VLAN assignment (§5.2).

The switch intentionally enforces strict VLAN isolation: frames never
cross VLANs here.  Controlled crosstalk between inmate VLANs is the
*gateway's* job (the learning VLAN bridge, §5.1), subject to policy.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.addresses import MacAddress
from repro.net.packet import EthernetFrame
from repro.sim.engine import Simulator

FrameHandler = Callable[[EthernetFrame, "Port"], None]


class Port:
    """One end of a link, owned by a device."""

    def __init__(self, owner: object, name: str = "") -> None:
        self.owner = owner
        self.name = name
        self.link: Optional["Link"] = None
        # The other end of the link, set by Link and cleared with it.
        self.peer: Optional["Port"] = None
        self.frames_sent = 0
        # Batch coalescing: set to the owning Simulator to let this
        # port claim all same-instant deliveries queued behind the one
        # firing and hand them to the owner's receive_frame_batch in
        # one call.  None (the default) keeps scalar delivery.
        self.coalesce: Optional[Simulator] = None

    @property
    def connected(self) -> bool:
        return self.link is not None

    def send(self, frame: EthernetFrame) -> None:
        """Transmit a frame out this port (no-op when unplugged)."""
        link = self.link
        if link is None:
            return
        self.frames_sent += 1
        peer = self.peer
        # Decided per send: farm.py sets both after the link exists.
        if link.batch_window or peer.coalesce is not None:
            link.transmit(self, frame)
            return
        # The default hop: one plain heap entry, straight to the peer
        # device (docs/PERFORMANCE.md, "The per-hop kernel").  The
        # owner's receive_frame is looked up now, not when the link was
        # built, so a device that replaces it still sees its frames;
        # post() rejects a latency reassigned to NaN or below zero.
        link.frames_carried += 1
        link.sim.post(link.latency, peer.owner.receive_frame, frame, peer)

    def deliver(self, frame: EthernetFrame) -> None:
        """Receive a frame sent over a windowed link or to a coalescing
        port (:meth:`Link.transmit`); every other send is posted to the
        owner's ``receive_frame`` directly."""
        sim = self.coalesce
        if sim is not None:
            # Peek before paying a call: drain_coincident can claim (or
            # discard) only a head entry due this instant (or dead).
            queue = sim._queue
            # Entries are read by index: a posted one is a plain list.
            if queue and (queue[0][0] == sim.now or queue[0][6]):
                more = sim.drain_coincident(self.deliver)
            else:
                more = None
            if more:
                receive_batch = getattr(self.owner, "receive_frame_batch",
                                        None)
                if receive_batch is not None:
                    frames = [frame]
                    frames.extend(args[0] for args in more)
                    receive_batch(frames, self)
                    return
                # Owner cannot batch: replay the claimed frames
                # individually, preserving order.
                receive = self.owner.receive_frame
                receive(frame, self)
                for args in more:
                    receive(args[0], self)
                return
        self.owner.receive_frame(frame, self)

    def __repr__(self) -> str:
        return f"<Port {self.name or id(self)} of {self.owner!r}>"


class Link:
    """A reliable point-to-point link with fixed one-way latency."""

    def __init__(
        self,
        sim: Simulator,
        port_a: Port,
        port_b: Port,
        latency: float = 0.0005,
        batch_window: Optional[float] = None,
    ) -> None:
        if port_a.link is not None or port_b.link is not None:
            raise RuntimeError("port already linked")
        # Checked once here (NaN fails too) so transmit never has to.
        if not latency >= 0:
            raise ValueError(f"link latency must be >= 0, not {latency}")
        if batch_window is not None and not batch_window >= 0:
            raise ValueError(
                f"batch_window must be >= 0, not {batch_window}")
        self.sim = sim
        self.port_a = port_a
        self.port_b = port_b
        # Each direction's receiver, bound once rather than per frame.
        self._deliver_a = port_a.deliver
        self._deliver_b = port_b.deliver
        self.latency = latency
        # Coalescing window (virtual seconds).  A positive window
        # quantizes delivery times up to the next window boundary, so
        # frames in flight during the same window arrive at the same
        # instant and a coalescing receiver (Port.coalesce) batches
        # them.  0.0 or None leaves per-frame timing untouched — with a
        # coalescing receiver, only naturally coincident frames merge.
        self.batch_window = batch_window
        self.frames_carried = 0
        port_a.link = self
        port_b.link = self
        port_a.peer = port_b
        port_b.peer = port_a

    def transmit(self, from_port: Port, frame: EthernetFrame) -> None:
        """The windowed/coalescing hop (:meth:`Port.send` takes it when
        the link has a ``batch_window`` or the peer port coalesces)."""
        deliver = (self._deliver_b if from_port is self.port_a
                   else self._deliver_a)
        self.frames_carried += 1
        window = self.batch_window
        if window:
            when = self.sim.now + self.latency
            self.sim.schedule_at(-(-when // window) * window, deliver,
                                 frame, label="link-deliver")
            return
        self.sim.schedule(self.latency, deliver, frame, label="link-deliver")

    def disconnect(self) -> None:
        self.port_a.link = self.port_a.peer = None
        self.port_b.link = self.port_b.peer = None


def connect(
    sim: Simulator, device_a: object, device_b: object, latency: float = 0.0005
) -> Tuple[Port, Port]:
    """Convenience: attach two devices that expose ``attach_port()``."""
    port_a = device_a.attach_port()  # type: ignore[attr-defined]
    port_b = device_b.attach_port()  # type: ignore[attr-defined]
    Link(sim, port_a, port_b, latency)
    return port_a, port_b


class PortMode(enum.Enum):
    """802.1Q port roles: untagged access or tagged trunk."""

    ACCESS = "access"  # untagged; fixed VLAN
    TRUNK = "trunk"    # tagged; carries a set of VLANs (or all)


class SwitchPortConfig:
    """Per-port VLAN configuration."""

    def __init__(
        self,
        mode: PortMode = PortMode.ACCESS,
        access_vlan: int = 1,
        trunk_vlans: Optional[frozenset] = None,
    ) -> None:
        self.mode = mode
        self.access_vlan = access_vlan
        self.trunk_vlans = trunk_vlans  # None => all VLANs allowed

    def carries(self, vlan: int) -> bool:
        if self.mode is PortMode.ACCESS:
            return vlan == self.access_vlan
        return self.trunk_vlans is None or vlan in self.trunk_vlans


class Switch:
    """An 802.1Q learning switch.

    Frames arriving on access ports are classified into the port's
    VLAN; frames leaving access ports are untagged.  Trunk ports carry
    tagged frames for their allowed VLAN set.  MAC learning is keyed on
    (vlan, mac) so identical MACs on different VLANs never collide —
    inmates are routinely cloned from the same image and share MACs.
    The table holds the MAC's 48-bit value, not the address object: an
    int pair hashes and compares in C, once per frame each way.
    """

    def __init__(self, sim: Simulator, name: str = "switch") -> None:
        self.sim = sim
        self.name = name
        self.ports: List[Port] = []
        self.configs: Dict[Port, SwitchPortConfig] = {}
        self._mac_table: Dict[Tuple[int, int], Port] = {}
        self.frames_switched = 0
        self.frames_flooded = 0
        self.frames_filtered = 0

    def attach_port(
        self,
        mode: PortMode = PortMode.ACCESS,
        access_vlan: int = 1,
        trunk_vlans: Optional[frozenset] = None,
    ) -> Port:
        port = Port(self, name=f"{self.name}.p{len(self.ports)}")
        self.ports.append(port)
        self.configs[port] = SwitchPortConfig(mode, access_vlan, trunk_vlans)
        return port

    def configure_port(self, port: Port, config: SwitchPortConfig) -> None:
        if port not in self.configs:
            raise KeyError("port does not belong to this switch")
        self.configs[port] = config

    def receive_frame(self, frame: EthernetFrame, port: Port) -> None:
        config = self.configs[port]
        if config.mode is PortMode.ACCESS:
            vlan = config.access_vlan
        else:
            vlan = frame.vlan
            # Untagged frames on trunks are dropped, like tagged ones
            # outside the port's allowed set.
            if vlan is None or not (config.trunk_vlans is None
                                    or vlan in config.trunk_vlans):
                self.frames_filtered += 1
                return

        table = self._mac_table
        table[(vlan, frame.src.value)] = port

        configs = self.configs
        out = None
        dst = frame.dst.value
        if dst != MacAddress.BROADCAST_VALUE:
            out = table.get((vlan, dst))
            if out is port:
                return  # hairpin; drop
        if out is not None:
            self.frames_switched += 1
            targets = (out,)
        else:
            # Flood within the VLAN.
            self.frames_flooded += 1
            targets = [candidate for candidate in self.ports
                       if candidate is not port
                       and configs[candidate].carries(vlan)]
        # Only the Ethernet header differs per egress port; a sent
        # frame is never mutated again, so the IPv4 payload is shared.
        for target in targets:
            tag = (None if configs[target].mode is PortMode.ACCESS
                   else vlan)
            target.send(EthernetFrame(frame.src, frame.dst, frame.payload,
                                      tag, frame.ethertype))

    def mac_table_snapshot(self) -> Dict[Tuple[int, MacAddress], Port]:
        return {(vlan, MacAddress(mac)): port
                for (vlan, mac), port in self._mac_table.items()}

    def __repr__(self) -> str:
        return f"<Switch {self.name} ports={len(self.ports)}>"
