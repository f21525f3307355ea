"""The learning VLAN bridge (§5.1).

"A custom learning VLAN bridge selectively enables crosstalk among
machines on the inmate network as required, subject to the containment
policy in effect.  Its ability to learn about the hosts present reduces
the configuration overhead required to bootstrap the inmate network."

Physical switches keep inmate VLANs strictly isolated, so all
crosstalk transits the gateway.  This bridge learns, per VLAN, the
inmate's MAC and internal IP from its traffic, giving the router what
it needs to (a) deliver frames into a VLAN and (b) map internal IPs
back to VLAN IDs when a containment verdict redirects one inmate's
flow to another inmate.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.addresses import IPv4Address, MacAddress
from repro.obs.telemetry import NULL_TELEMETRY


class BridgeEntry:
    """What the bridge knows about one VLAN's inmate."""

    __slots__ = ("vlan", "mac", "ip", "first_seen", "last_seen", "frames")

    def __init__(self, vlan: int, mac: MacAddress, now: float) -> None:
        self.vlan = vlan
        self.mac = mac
        self.ip: Optional[IPv4Address] = None
        self.first_seen = now
        self.last_seen = now
        self.frames = 0

    def __repr__(self) -> str:
        return f"<BridgeEntry vlan={self.vlan} mac={self.mac} ip={self.ip}>"


class LearningBridge:
    """Per-VLAN inmate learning table.

    ``entries`` is the live ``vlan -> BridgeEntry`` dict; the VLAN's
    egress binds it once and probes it per packet (the
    ``FlowTable.entries`` idiom), so resolving a learned MAC costs no
    call.  The IP index is keyed on the address's 32-bit value.
    """

    def __init__(self, telemetry=None, subfarm: str = "") -> None:
        self.entries: Dict[int, BridgeEntry] = {}
        self._vlan_by_ip: Dict[int, int] = {}
        self.observations = 0
        self.learned = 0
        telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        telemetry.counter(
            "gw.bridge.learned", "New (VLAN, MAC) entries"
        ).register(lambda: self.learned, subfarm=subfarm)
        telemetry.counter(
            "gw.bridge.observations", "Frames observed by the bridge"
        ).register(lambda: self.observations, subfarm=subfarm)

    def learn(self, vlan: int, mac: MacAddress, now: float,
              ip: Optional[IPv4Address] = None) -> BridgeEntry:
        """Record an observation of traffic from an inmate."""
        self.observations += 1
        entry = self.entries.get(vlan)
        if entry is None or entry.mac.value != mac.value:
            entry = BridgeEntry(vlan, mac, now)
            self.entries[vlan] = entry
            self.learned += 1
        entry.last_seen = now
        entry.frames += 1
        if ip is not None and ip.value != 0:
            known = entry.ip
            if known is not None and known.value != ip.value:
                self._vlan_by_ip.pop(known.value, None)
            entry.ip = ip
            self._vlan_by_ip[ip.value] = vlan
        return entry

    def forget(self, vlan: int) -> None:
        entry = self.entries.pop(vlan, None)
        if entry is not None and entry.ip is not None:
            self._vlan_by_ip.pop(entry.ip.value, None)

    def entry(self, vlan: int) -> Optional[BridgeEntry]:
        return self.entries.get(vlan)

    def mac_for(self, vlan: int) -> Optional[MacAddress]:
        entry = self.entries.get(vlan)
        return entry.mac if entry else None

    def vlan_for_ip(self, ip: IPv4Address) -> Optional[int]:
        return self._vlan_by_ip.get(ip.value)

    def __len__(self) -> int:
        return len(self.entries)
