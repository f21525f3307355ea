"""VLAN ID allocation (§5.2, §7.2).

"VLAN IDs thus serve as handy identifiers for individual inmates ...
which our inmate creation/deletion procedure automatically picks and
releases from the available VLAN ID pool."  IEEE 802.1Q caps the pool
at 12 bits (4094 usable IDs) — the first scalability constraint §7.2
discusses.
"""

from __future__ import annotations

from typing import Set

VLAN_MIN = 1
VLAN_MAX = 4094  # 802.1Q: 0 and 4095 are reserved


class VlanPoolExhausted(RuntimeError):
    """All VLAN IDs in the pool are in use (the 802.1Q 12-bit limit)."""


class VlanPool:
    """Allocator over a contiguous range of VLAN IDs."""

    def __init__(self, first: int = 2, last: int = VLAN_MAX) -> None:
        if not VLAN_MIN <= first <= last <= VLAN_MAX:
            raise ValueError(f"bad VLAN range [{first}, {last}]")
        self.first = first
        self.last = last
        self._in_use: Set[int] = set()
        self._next = first

    @property
    def capacity(self) -> int:
        return self.last - self.first + 1

    @property
    def in_use(self) -> int:
        return len(self._in_use)

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def allocate(self) -> int:
        if self.available == 0:
            raise VlanPoolExhausted(
                f"all {self.capacity} VLAN IDs in [{self.first}, {self.last}] "
                f"are in use (802.1Q allows at most 4094)"
            )
        for _ in range(self.capacity):
            candidate = self._next
            self._next += 1
            if self._next > self.last:
                self._next = self.first
            if candidate not in self._in_use:
                self._in_use.add(candidate)
                return candidate
        raise VlanPoolExhausted("no free VLAN ID found")  # pragma: no cover

    def allocate_specific(self, vlan: int) -> int:
        if not self.first <= vlan <= self.last:
            raise ValueError(f"VLAN {vlan} outside pool range")
        if vlan in self._in_use:
            raise VlanPoolExhausted(f"VLAN {vlan} already in use")
        self._in_use.add(vlan)
        return vlan

    def release(self, vlan: int) -> None:
        self._in_use.discard(vlan)
