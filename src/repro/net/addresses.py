"""Address types: IPv4 and MAC.

Thin, hashable value types.  :class:`IPv4Address` wraps a 32-bit integer
(rather than the stdlib ``ipaddress`` objects) because the simulator
creates and compares millions of them and the gateway needs cheap
arithmetic for NAT pool management.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, Union


class IPv4Address:
    """A 32-bit IPv4 address, hashable and totally ordered.

    Instances are interned: constructing the same address twice returns
    the same object (up to a bounded cache), so 5-tuple equality checks
    in the gateway's flow table usually short-circuit on identity.
    Treat instances as immutable.
    """

    __slots__ = ("value",)

    _intern: Dict[int, "IPv4Address"] = {}
    _INTERN_MAX = 65536

    def __new__(cls, address: Union[str, int, "IPv4Address"]) -> "IPv4Address":
        if isinstance(address, IPv4Address):
            return address
        if isinstance(address, int):
            if not 0 <= address <= 0xFFFFFFFF:
                raise ValueError(f"IPv4 value out of range: {address}")
            value = address
        elif isinstance(address, str):
            parts = address.split(".")
            if len(parts) != 4:
                raise ValueError(f"malformed IPv4 address: {address!r}")
            value = 0
            for part in parts:
                octet = int(part)
                if not 0 <= octet <= 255:
                    raise ValueError(f"malformed IPv4 address: {address!r}")
                value = (value << 8) | octet
        else:
            raise TypeError(f"cannot build IPv4Address from {type(address)}")
        cache = cls._intern
        self = cache.get(value)
        if self is None or type(self) is not cls:
            self = object.__new__(cls)
            object.__setattr__(self, "value", value)
            if type(self) is IPv4Address and len(cache) < cls._INTERN_MAX:
                cache[value] = self
        return self

    def to_bytes(self) -> bytes:
        return struct.pack("!I", self.value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Address":
        if len(data) != 4:
            raise ValueError("IPv4 address requires exactly 4 bytes")
        return cls(struct.unpack("!I", data)[0])

    def is_rfc1918(self) -> bool:
        """True for 10/8, 172.16/12, and 192.168/16 space."""
        v = self.value
        return (
            (v >> 24) == 10
            or (v >> 20) == (172 << 4 | 1)  # 172.16.0.0/12
            or (v >> 16) == (192 << 8 | 168)
        )

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address(self.value + offset)

    def __sub__(self, other: "IPv4Address") -> int:
        return self.value - other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IPv4Address) and self.value == other.value

    def __lt__(self, other: "IPv4Address") -> bool:
        return self.value < other.value

    def __le__(self, other: "IPv4Address") -> bool:
        return self.value <= other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __str__(self) -> str:
        v = self.value
        return f"{v >> 24}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"


class IPv4Network:
    """A CIDR network, used for NAT pools and address-space accounting."""

    __slots__ = ("network", "prefix_len")

    def __init__(self, cidr: str) -> None:
        if not isinstance(cidr, str):
            raise ValueError(f"a network is a CIDR string, not {cidr!r}")
        address, _, prefix = cidr.partition("/")
        if not prefix:
            raise ValueError(f"network requires a prefix length: {cidr!r}")
        self.prefix_len = int(prefix)
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"bad prefix length: {self.prefix_len}")
        base = IPv4Address(address).value
        self.network = base & self.mask

    @property
    def mask(self) -> int:
        if self.prefix_len == 0:
            return 0
        return (0xFFFFFFFF << (32 - self.prefix_len)) & 0xFFFFFFFF

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self.prefix_len)

    def contains(self, address: IPv4Address) -> bool:
        return (address.value & self.mask) == self.network

    def hosts(self) -> Iterator[IPv4Address]:
        """Yield usable host addresses (excludes network/broadcast for
        prefixes shorter than /31)."""
        first, last = self.network, self.network + self.num_addresses - 1
        if self.prefix_len < 31:
            first += 1
            last -= 1
        for value in range(first, last + 1):
            yield IPv4Address(value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IPv4Network)
            and self.network == other.network
            and self.prefix_len == other.prefix_len
        )

    def __hash__(self) -> int:
        return hash((self.network, self.prefix_len))

    def __str__(self) -> str:
        return f"{IPv4Address(self.network)}/{self.prefix_len}"

    def __repr__(self) -> str:
        return f"IPv4Network({str(self)!r})"


class MacAddress:
    """A 48-bit MAC address.

    Interned like :class:`IPv4Address`; treat instances as immutable.
    """

    __slots__ = ("value",)

    BROADCAST_VALUE = 0xFFFFFFFFFFFF

    _intern: Dict[int, "MacAddress"] = {}
    _INTERN_MAX = 16384

    def __new__(cls, address: Union[str, int, "MacAddress"]) -> "MacAddress":
        if isinstance(address, MacAddress):
            return address
        if isinstance(address, int):
            if not 0 <= address <= 0xFFFFFFFFFFFF:
                raise ValueError(f"MAC value out of range: {address}")
            value = address
        elif isinstance(address, str):
            parts = address.split(":")
            if len(parts) != 6:
                raise ValueError(f"malformed MAC address: {address!r}")
            value = 0
            for part in parts:
                octet = int(part, 16)
                if not 0 <= octet <= 255:
                    raise ValueError(f"malformed MAC address: {address!r}")
                value = (value << 8) | octet
        else:
            raise TypeError(f"cannot build MacAddress from {type(address)}")
        cache = cls._intern
        self = cache.get(value)
        if self is None or type(self) is not cls:
            self = object.__new__(cls)
            object.__setattr__(self, "value", value)
            if type(self) is MacAddress and len(cache) < cls._INTERN_MAX:
                cache[value] = self
        return self

    @classmethod
    def broadcast(cls) -> "MacAddress":
        return cls(cls.BROADCAST_VALUE)

    @property
    def is_broadcast(self) -> bool:
        return self.value == self.BROADCAST_VALUE

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(6, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "MacAddress":
        if len(data) != 6:
            raise ValueError("MAC address requires exactly 6 bytes")
        return cls(int.from_bytes(data, "big"))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MacAddress) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("mac", self.value))

    def __str__(self) -> str:
        raw = self.value.to_bytes(6, "big")
        return ":".join(f"{b:02x}" for b in raw)

    def __repr__(self) -> str:
        return f"MacAddress({str(self)!r})"


class MacAllocator:
    """Hands out locally administered, unique MAC addresses."""

    def __init__(self, oui: int = 0x02_00_00) -> None:
        self._oui = oui
        self._next = 1

    def allocate(self) -> MacAddress:
        value = (self._oui << 24) | self._next
        self._next += 1
        if self._next > 0xFFFFFF:
            raise RuntimeError("MAC allocator exhausted")
        return MacAddress(value)
