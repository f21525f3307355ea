"""The uniform parse-error taxonomy.

Every parser in :mod:`repro.net` and :mod:`repro.core.shim` raises a
single structured :class:`ParseError` on hostile or malformed input —
any *other* exception escaping a parser is by definition a bug, and
exactly what the fuzz plane (:mod:`repro.fuzz`) hunts.  The gateway's
malice barrier (:mod:`repro.gateway.barrier`) catches :class:`ParseError`
at ingest, so a malformed frame can never unwind the event loop.

``ParseError`` subclasses :class:`ValueError` deliberately: every
pre-existing ``except ValueError`` site (DHCP clients, stub resolvers,
pcap readers, proxy-ARP) keeps working unchanged, while new code can
catch the structured type and read ``protocol``/``offset``/``reason``.
"""

from __future__ import annotations


class ParseError(ValueError):
    """Structured rejection of malformed wire input.

    Attributes:
        protocol: short lowercase protocol label ("dns", "tcp", "shim",
            "ethernet", ...) identifying the parser that rejected the
            input — the malice barrier counts drops per (vlan, protocol).
        reason: human-readable description of the defect.
        offset: byte offset into the parsed buffer where the defect was
            detected (best effort; 0 when the whole input is unusable).
    """

    def __init__(self, protocol: str, reason: str, offset: int = 0) -> None:
        self.protocol = protocol
        self.reason = reason
        self.offset = offset
        super().__init__(f"{protocol} parse error at offset {offset}: {reason}")

    def __reduce__(self):  # picklable across campaign workers
        return (self.__class__, (self.protocol, self.reason, self.offset))


__all__ = ["ParseError"]
