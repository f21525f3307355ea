"""Blacklist infrastructure — a Composite Blocking List (CBL) model.

§7.1 "Mysterious blacklisting": GQ's Waledac inmates appeared on the
CBL although the only permitted outside interaction was a single test
message to a GMail server.  Google had fingerprinted the bots'
recognizable HELO string (``wergvan``) and reported the senders'
addresses to blacklist providers.

The model captures that pipeline: mail servers (or anyone else) call
:meth:`BlockingList.report`; measurement code calls :meth:`listed` —
exactly the check GQ's reporting runs against its inmates' global
addresses (§6.5, §6.7: absence of blacklisting is evidence of
containment quality).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.net.addresses import IPv4Address


class BlacklistEntry:
    """Reputation state for one reported address."""

    __slots__ = ("address", "first_reported", "last_reported", "reasons",
                 "reports")

    def __init__(self, address: IPv4Address, timestamp: float,
                 reason: str) -> None:
        self.address = address
        self.first_reported = timestamp
        self.last_reported = timestamp
        self.reasons: List[str] = [reason]
        self.reports = 1


class BlockingList:
    """An IP reputation list fed by detection reports."""

    def __init__(self, name: str = "CBL",
                 reports_to_list: int = 1) -> None:
        self.name = name
        #: How many independent reports before an address is listed.
        self.reports_to_list = reports_to_list
        self._entries: Dict[IPv4Address, BlacklistEntry] = {}
        self.total_reports = 0

    def report(self, address: IPv4Address, timestamp: float,
               reason: str) -> None:
        self.total_reports += 1
        address = IPv4Address(address)
        entry = self._entries.get(address)
        if entry is None:
            self._entries[address] = BlacklistEntry(address, timestamp, reason)
        else:
            entry.reports += 1
            entry.last_reported = timestamp
            entry.reasons.append(reason)

    def listed(self, address: IPv4Address) -> bool:
        entry = self._entries.get(IPv4Address(address))
        return entry is not None and entry.reports >= self.reports_to_list

    def entry(self, address: IPv4Address) -> Optional[BlacklistEntry]:
        return self._entries.get(IPv4Address(address))

    def listed_addresses(self) -> Set[IPv4Address]:
        return {
            address for address, entry in self._entries.items()
            if entry.reports >= self.reports_to_list
        }

    def __len__(self) -> int:
        return len(self.listed_addresses())

    def __repr__(self) -> str:
        return f"<BlockingList {self.name} listed={len(self)}>"
