"""Network address translation for the inmate network (§5.3).

Every inmate lives behind NAT: the packet forwarder assigns internal
RFC 1918 addresses (triggered by boot-time chatter) and maps them
1:1 onto the farm's globally routable address space.  Outside->inside
flows are either dropped (emulating a typical home-user setup) or
forwarded with destination rewriting (providing Internet-reachable
servers) — per-subfarm configurable.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Iterator, List, Optional

from repro.net.addresses import IPv4Address, IPv4Network
from repro.obs.telemetry import NULL_TELEMETRY


class InboundMode(enum.Enum):
    """What happens to unsolicited outside->inside flows."""

    DROP = "drop"        # home-user NAT: nothing gets in
    FORWARD = "forward"  # honeyfarm: rewrite and deliver to the inmate


class AddressPoolExhausted(RuntimeError):
    """No addresses left in an allocation pool."""


class AddressPool:
    """Sequential allocator over one or more networks."""

    def __init__(self, networks: List[IPv4Network],
                 reserved: Optional[List[IPv4Address]] = None) -> None:
        self.networks = list(networks)
        self._reserved = set(reserved or [])
        self._iterator = self._walk()
        self._released: List[IPv4Address] = []
        self.allocated = 0

    def add_network(self, network: IPv4Network) -> None:
        """Grow the pool — e.g. tunneled address space donated by a
        third party (§7.2)."""
        self.networks.append(network)

    def _walk(self) -> Iterator[IPv4Address]:
        index = 0
        while index < len(self.networks):  # networks may grow while walking
            network = self.networks[index]
            for address in network.hosts():
                if address not in self._reserved:
                    yield address
            index += 1

    @property
    def capacity(self) -> int:
        total = sum(
            max(network.num_addresses - (2 if network.prefix_len < 31 else 0), 0)
            for network in self.networks
        )
        return total - len(self._reserved)

    def allocate(self) -> IPv4Address:
        if self._released:
            self.allocated += 1
            return self._released.pop()
        try:
            address = next(self._iterator)
        except StopIteration:
            raise AddressPoolExhausted(
                f"pool over {[str(n) for n in self.networks]} exhausted"
            ) from None
        self.allocated += 1
        return address

    def release(self, address: IPv4Address) -> None:
        self.allocated -= 1
        self._released.append(address)


class NatTable:
    """1:1 VLAN-keyed NAT between internal and global addresses.

    The VLAN ID identifies the inmate, so the binding is
    ``vlan -> (internal address, global address)``.  Ports are
    preserved (1:1 NAT), which keeps flow bookkeeping simple and
    matches how GQ gives each inmate a stable, dedicated global
    address (§6.7 — a scarce resource worth protecting from
    blacklisting).  The reverse maps are keyed on the address's 32-bit
    value, so a per-packet lookup hashes an int.
    """

    def __init__(self, internal_pool: AddressPool,
                 global_pool: AddressPool,
                 inbound_mode: InboundMode = InboundMode.FORWARD,
                 telemetry=None, subfarm: str = "") -> None:
        self.internal_pool = internal_pool
        self.global_pool = global_pool
        self.inbound_mode = inbound_mode
        self._internal_by_vlan: Dict[int, IPv4Address] = {}
        self._global_by_vlan: Dict[int, IPv4Address] = {}
        self._vlan_by_internal: Dict[int, int] = {}
        self._vlan_by_global: Dict[int, int] = {}
        self._global_watcher: Optional[
            Callable[[IPv4Address, bool], None]] = None
        telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._m_binds = telemetry.counter(
            "gw.nat.binds", "Inmate address bindings created"
        ).bind(subfarm=subfarm)
        self._g_bindings = telemetry.gauge(
            "gw.nat.bindings", "Live VLAN->address bindings"
        ).bind(subfarm=subfarm)
        self._g_pool_used = telemetry.gauge(
            "gw.nat.pool.used", "Global addresses allocated"
        ).bind(subfarm=subfarm)
        self._g_pool_capacity = telemetry.gauge(
            "gw.nat.pool.capacity", "Global addresses in the pool"
        ).bind(subfarm=subfarm)

    def _update_pool_gauges(self) -> None:
        self._g_bindings.set(len(self._internal_by_vlan))
        self._g_pool_used.set(self.global_pool.allocated)
        self._g_pool_capacity.set(self.global_pool.capacity)

    def watch_globals(
            self, watcher: Callable[[IPv4Address, bool], None]) -> None:
        """Report every global address this table binds or unbinds as
        ``watcher(address, bound)``, starting with the ones bound now —
        what keeps the gateway's upstream demux map exact."""
        self._global_watcher = watcher
        for global_ip in self._global_by_vlan.values():
            watcher(global_ip, True)

    # ------------------------------------------------------------------
    def bind(self, vlan: int) -> IPv4Address:
        """Assign (or return) the internal address for an inmate."""
        if vlan in self._internal_by_vlan:
            return self._internal_by_vlan[vlan]
        internal = self.internal_pool.allocate()
        global_ip = self.global_pool.allocate()
        self._internal_by_vlan[vlan] = internal
        self._global_by_vlan[vlan] = global_ip
        self._vlan_by_internal[internal.value] = vlan
        self._vlan_by_global[global_ip.value] = vlan
        if self._global_watcher is not None:
            self._global_watcher(global_ip, True)
        self._m_binds.inc()
        self._update_pool_gauges()
        return internal

    def unbind(self, vlan: int) -> None:
        internal = self._internal_by_vlan.pop(vlan, None)
        global_ip = self._global_by_vlan.pop(vlan, None)
        if internal is not None:
            del self._vlan_by_internal[internal.value]
            self.internal_pool.release(internal)
        if global_ip is not None:
            del self._vlan_by_global[global_ip.value]
            if self._global_watcher is not None:
                self._global_watcher(global_ip, False)
            self.global_pool.release(global_ip)
        self._update_pool_gauges()

    # ------------------------------------------------------------------
    def internal_for(self, vlan: int) -> Optional[IPv4Address]:
        return self._internal_by_vlan.get(vlan)

    def global_for(self, vlan: int) -> Optional[IPv4Address]:
        return self._global_by_vlan.get(vlan)

    def vlan_for_internal(self, address: IPv4Address) -> Optional[int]:
        return self._vlan_by_internal.get(address.value)

    def vlan_for_global(self, address: IPv4Address) -> Optional[int]:
        return self._vlan_by_global.get(address.value)

    def to_global(self, internal: IPv4Address) -> Optional[IPv4Address]:
        vlan = self._vlan_by_internal.get(internal.value)
        return self._global_by_vlan.get(vlan) if vlan is not None else None

    def to_internal(self, global_ip: IPv4Address) -> Optional[IPv4Address]:
        vlan = self._vlan_by_global.get(global_ip.value)
        return self._internal_by_vlan.get(vlan) if vlan is not None else None

    def bindings(self) -> Dict[int, tuple]:
        return {
            vlan: (self._internal_by_vlan[vlan], self._global_by_vlan[vlan])
            for vlan in self._internal_by_vlan
        }
