"""Per-flow containment state in the gateway.

Every flow to or from an inmate gets a :class:`FlowRecord` tracking its
journey through containment:

1. ``SHIM`` — the flow is physically coupled to the containment
   server: the gateway rewrote its destination to the server's fixed
   address/port, injected the request shim into the byte stream
   (bumping subsequent sequence numbers), and is watching the return
   stream for the response shim (which it strips, unbumping).
2. ``ENFORCED`` — verdict known.  FORWARD/LIMIT/REDIRECT/REFLECT flows
   were handed off: the gateway replayed the originator's SYN (and any
   buffered payload) toward the enforced destination and now performs
   pure packet-level translation — the containment server is out of
   the path, exactly as §5.4 prescribes ("the gateway alone enforces
   endpoint control, conserving resources on the containment server").
   REWRITE flows stay coupled to the containment server for life.
3. ``DROPPED`` / ``REFUSED`` — terminal.

The sequence-number bookkeeping matches Figure 5:

* ``c2s_inj`` — bytes the gateway injected into the originator→server
  stream (the 24-byte request shim).
* ``s2c_rem`` — bytes it removed from the server→originator stream
  (the ≥56-byte response shim).
* After handoff, ``isn_delta = cs_isn − dst_isn`` translates between
  the ISN the originator handshook with (the containment server's) and
  the enforced destination's.
"""

from __future__ import annotations

import enum
from typing import Deque, Optional

from collections import deque

from repro.core.verdicts import ContainmentDecision
from repro.net.addresses import IPv4Address
from repro.net.flow import FiveTuple
from repro.net.packet import UDPDatagram


class FlowPhase(enum.Enum):
    """Where a flow stands in its containment journey."""

    SHIM = "shim"          # coupled to the containment server, verdict pending
    HANDOFF = "handoff"    # SYN sent to the enforced destination
    ENFORCED = "enforced"  # verdict being enforced by the gateway alone
    DROPPED = "dropped"    # DROP verdict applied
    REFUSED = "refused"    # safety filter refused the flow
    CLOSED = "closed"


# Phases in which a record still owns demux state worth housekeeping.
LIVE_PHASES = (FlowPhase.SHIM, FlowPhase.HANDOFF, FlowPhase.ENFORCED)
# Phases in which a verdict stands as installed rules.
DECIDED_PHASES = (FlowPhase.ENFORCED, FlowPhase.DROPPED)


class FlowRecord:
    """Containment state for one flow.

    Slotted: the router keeps every record for the whole run
    (``flows()``), so a ``__dict__`` apiece is the single largest item
    on a churn workload's heap.
    """

    __slots__ = (
        "orig", "orig_key", "resp_key", "vlan", "inmate_is_originator",
        "created_at", "last_activity", "mux_port", "nonce_port",
        "phase", "decision", "cs_ip",
        "client_isn", "cs_isn", "dst_isn", "c2s_inj", "s2c_rem",
        "shim_injected", "cs_handshake_replay", "shim_buffer",
        "client_buffer", "client_fin", "client_fin_relayed",
        "c2s_bytes", "s2c_bytes", "c2s_packets", "s2c_packets",
        "dst_ip", "dst_port", "dst_is_inmate_vlan", "nat_global",
        "spoof_preserve", "udp_pending", "shaper",
        "keys", "installed",
    )

    def __init__(
        self,
        orig: FiveTuple,
        vlan: int,
        inmate_is_originator: bool,
        created_at: float,
        mux_port: int,
        nonce_port: int,
    ) -> None:
        # ``orig`` is the five-tuple exactly as the originator sent it:
        # internal addresses for inmate-originated flows, the inmate's
        # *global* address as destination for inbound flows.
        self.orig = orig
        # The same tuple and its reverse as the router's flow keys:
        # ``(src ip as int, sport, dst ip as int, dport, proto)``.
        self.orig_key = orig.as_key()
        src, sport, dst, dport, proto = self.orig_key
        self.resp_key = (dst, dport, src, sport, proto)
        self.vlan = vlan
        self.inmate_is_originator = inmate_is_originator
        self.created_at = created_at
        self.last_activity = created_at
        self.mux_port = mux_port
        self.nonce_port = nonce_port

        self.phase = FlowPhase.SHIM
        self.decision: Optional[ContainmentDecision] = None
        # Which containment server handles this flow (cluster mode);
        # assigned by the router at creation.
        self.cs_ip: Optional[IPv4Address] = None

        # TCP relay state ------------------------------------------------
        self.client_isn: Optional[int] = None
        self.cs_isn: Optional[int] = None
        self.dst_isn: Optional[int] = None
        self.c2s_inj = 0
        self.s2c_rem = 0
        self.shim_injected = False
        # Set while a resilience re-home awaits the fresh SYN-ACK of a
        # standby containment server: the client already handshook, so
        # the router completes the new leg itself (see
        # SubfarmRouter._replay_cs_handshake).
        self.cs_handshake_replay = False
        self.shim_buffer = bytearray()   # server->client bytes pending shim parse
        self.client_buffer = bytearray() # client payload buffered for handoff
        self.client_fin = False
        self.client_fin_relayed = False
        self.c2s_bytes = 0
        self.s2c_bytes = 0
        self.c2s_packets = 0
        self.s2c_packets = 0

        # Enforced destination (post-verdict). ---------------------------
        self.dst_ip: Optional[IPv4Address] = None
        self.dst_port: Optional[int] = None
        self.dst_is_inmate_vlan: Optional[int] = None  # crosstalk target
        self.nat_global: Optional[IPv4Address] = None
        # REFLECT keeps the original (spoofed) destination address in
        # the packets while physically delivering them to the sink, so
        # the sink can see what the specimen actually dialled.
        self.spoof_preserve = False

        # UDP state -------------------------------------------------------
        # Datagrams held for replay at the verdict; allocated on first
        # use (hold_udp) — only UDP flows in the SHIM phase have any.
        self.udp_pending: Optional[Deque[UDPDatagram]] = None

        # LIMIT shaping ----------------------------------------------------
        self.shaper: Optional["TokenBucket"] = None

        # Router bookkeeping ----------------------------------------------
        # Every flow key this record is bound under in the router's
        # flow table, so eviction is O(legs) instead of an O(table)
        # scan; and whether its rules are installed there now.
        self.keys: list = []
        self.installed = False

    # ------------------------------------------------------------------
    @property
    def isn_delta(self) -> int:
        """cs_isn - dst_isn, the server-side ISN translation."""
        if self.cs_isn is None or self.dst_isn is None:
            raise RuntimeError("ISNs not yet known")
        return (self.cs_isn - self.dst_isn) % (1 << 32)

    @property
    def verdict_name(self) -> str:
        if self.phase == FlowPhase.REFUSED:
            return "REFUSED"
        if self.decision is None:
            return "PENDING"
        return self.decision.verdict.label

    def hold_udp(self, datagram: UDPDatagram) -> None:
        """Queue a datagram for replay once the verdict is in."""
        if self.udp_pending is None:
            self.udp_pending = deque()
        self.udp_pending.append(datagram)

    def __repr__(self) -> str:
        return (
            f"<FlowRecord {self.orig} vlan={self.vlan} {self.phase.value} "
            f"verdict={self.verdict_name}>"
        )


class TokenBucket:
    """Byte-budget shaper for LIMIT verdicts.

    Shaping (delaying) rather than policing (dropping) — the farm's
    TCP substrate has no retransmission, and a real deployment prefers
    not to break the flow either, merely to slow it.
    """

    def __init__(self, rate: float, burst: Optional[float] = None) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.burst = burst if burst is not None else max(rate, 1500.0)
        self._tokens = self.burst
        self._last = 0.0

    def delay_for(self, now: float, size: int) -> float:
        """Seconds to hold a packet of ``size`` bytes sent at ``now``.

        The balance may go negative (debt), so a burst of packets
        arriving at the same instant is serialized at the configured
        rate rather than each seeing only its own deficit.
        """
        elapsed = max(0.0, now - self._last)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._last = now
        self._tokens -= size
        if self._tokens >= 0:
            return 0.0
        return -self._tokens / self.rate


class FlowLogEntry:
    """One line of the gateway's flow log, consumed by reporting."""

    __slots__ = ("timestamp", "vlan", "orig", "verdict", "policy",
                 "annotation", "inmate_is_originator")

    def __init__(self, timestamp: float, record: FlowRecord) -> None:
        self.timestamp = timestamp
        self.vlan = record.vlan
        self.orig = record.orig
        self.verdict = record.verdict_name
        decision = record.decision
        self.policy = decision.policy if decision else ""
        self.annotation = decision.annotation if decision else ""
        self.inmate_is_originator = record.inmate_is_originator

    def __repr__(self) -> str:
        return (
            f"<FlowLog t={self.timestamp:.1f} vlan={self.vlan} "
            f"{self.verdict} {self.orig}>"
        )
