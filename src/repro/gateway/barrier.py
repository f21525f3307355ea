"""The gateway malice barrier: fail-closed handling of hostile bytes.

GQ's inmates run live malware, so every byte the gateway parses is
adversarial.  The containment guarantee is only as strong as the
weakest parser on the path: an exception unwinding out of a frame
handler would take the event loop — and with it the whole farm — down,
which is the exact opposite of fail-closed containment.

:class:`MaliceBarrier` is the single choke point where
:class:`~repro.net.errors.ParseError` stops.  The router and the
containment server wrap their ingest paths in it; when a parser rejects
input the barrier

* **drops and counts** the frame per (vlan, protocol) — read by
  telemetry as ``barrier.parse_errors`` from each pair's first drop, so
  an all-well-formed run stays byte-identical to a build without the
  barrier;
* **quarantines** the offending bytes verbatim in a bounded ring,
  exportable to a real pcap for offline analysis;
* applies the :class:`~repro.farm.FarmConfig` policy — ``isolate``
  aborts the offending flow (when one is identifiable), ``fail-stop``
  freezes the whole subfarm's ingest, ``count`` only records.

Any exception that is *not* a ParseError still propagates: that is by
definition a parser bug, and exactly what :mod:`repro.fuzz` hunts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.capture import write_pcap
from repro.net.errors import ParseError
from repro.obs.telemetry import NULL_TELEMETRY, tally

#: Accepted FarmConfig.malice_policy values.
POLICIES = ("isolate", "fail-stop", "count")

#: Default bound on the quarantine ring.
DEFAULT_QUARANTINE_MAX = 1024


class _RawFrame:
    """Duck-typed stand-in for EthernetFrame in quarantine records.

    Offending bytes often failed Ethernet parsing, so there is no frame
    object to hold; this wrapper preserves them verbatim while giving
    :func:`repro.net.capture.write_pcap` the ``to_bytes()`` it needs.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data

    def to_bytes(self) -> bytes:
        return self.data

    def __repr__(self) -> str:
        return f"<RawFrame {len(self.data)} bytes>"


class QuarantineEntry:
    """One quarantined input: the bytes, when, and why."""

    __slots__ = ("timestamp", "frame", "point", "vlan", "protocol", "reason")

    def __init__(self, timestamp: float, data: bytes, vlan: int,
                 protocol: str, reason: str) -> None:
        self.timestamp = timestamp
        self.frame = _RawFrame(data)
        self.point = "quarantine"
        self.vlan = vlan
        self.protocol = protocol
        self.reason = reason

    def __repr__(self) -> str:
        return (f"<Quarantine t={self.timestamp:.6f} vlan={self.vlan} "
                f"{self.protocol}: {self.reason}>")


class MaliceBarrier:
    """Catches ParseError at gateway/CS ingest; never lets it unwind.

    One barrier per subfarm, shared by the router and its containment
    server(s), so the per-(vlan, protocol) counters and the quarantine
    tell one coherent story per subfarm.
    """

    def __init__(self, sim, name: str, telemetry=None) -> None:
        self.sim = sim
        self.name = name
        self._m_parse_errors = (telemetry or NULL_TELEMETRY).counter(
            "barrier.parse_errors",
            "Frames dropped by the malice barrier, by VLAN and protocol")
        # Decision journal (NULL_JOURNAL unless the farm attached one
        # before constructing the subfarm).
        self.journal = sim.journal
        # One of POLICIES; the subfarm sets its FarmConfig's, checked
        # there.
        self.policy = "isolate"
        self.quarantine_max_frames = DEFAULT_QUARANTINE_MAX

        #: (vlan, protocol) -> dropped-frame count.  vlan 0 means "not
        #: attributable to a VLAN" (e.g. CS stream bytes, upstream).
        self.counts: Dict[Tuple[int, str], int] = {}
        self.parse_errors = 0
        self.isolated_flows = 0
        self.failstop_drops = 0
        self.fail_stopped = False
        self.fail_stopped_at: Optional[float] = None
        self.quarantine: List[QuarantineEntry] = []
        self.quarantine_rotated = 0

    # ------------------------------------------------------------------
    def record(self, error: ParseError, vlan: Optional[int] = None,
               data: Optional[bytes] = None, frame=None) -> str:
        """Account for one rejected input; returns the policy to apply.

        ``data`` wins over ``frame`` for quarantine bytes; a frame that
        parsed far enough to exist is serialized back to wire form.
        """
        protocol = getattr(error, "protocol", None) or "unknown"
        vkey = vlan if vlan is not None else 0
        self.parse_errors += 1
        # A clean run counts nothing, so it registers nothing either.
        tally(self.counts, (vkey, protocol), self._m_parse_errors,
              subfarm=self.name, vlan=str(vkey), protocol=protocol)

        raw = data
        if raw is None and frame is not None:
            try:
                raw = frame.to_bytes()
            except Exception:
                raw = b""
        frame_index = None
        if raw is not None:
            if len(self.quarantine) >= self.quarantine_max_frames:
                del self.quarantine[0]
                self.quarantine_rotated += 1
            self.quarantine.append(QuarantineEntry(
                self.sim.now, bytes(raw), vkey, protocol,
                getattr(error, "reason", str(error))))
            # Absolute index of this entry in the quarantine pcap
            # stream (survives ring rotation) — the journal cross-
            # references it so the audit trail points at exact bytes.
            frame_index = self.quarantine_rotated + len(self.quarantine) - 1

        if self.journal.enabled:
            self.journal.record(
                "barrier.quarantine", vlan=vkey, subfarm=self.name,
                protocol=protocol,
                reason=getattr(error, "reason", str(error)),
                policy=self.policy, frame_index=frame_index)

        if self.policy == "fail-stop" and not self.fail_stopped:
            self.fail_stopped = True
            self.fail_stopped_at = self.sim.now
            if self.journal.enabled:
                self.journal.record("barrier.failstop", vlan=vkey,
                                    subfarm=self.name, protocol=protocol)
        return self.policy

    def note_failstop_drop(self) -> None:
        """A well-formed frame refused because the subfarm fail-stopped."""
        self.failstop_drops += 1

    def note_isolation(self) -> None:
        """The router isolated (aborted) an offending flow."""
        self.isolated_flows += 1

    # ------------------------------------------------------------------
    def export_quarantine(self, path: str) -> int:
        """Write the quarantined bytes as a pcap; returns frames written."""
        return write_pcap(path, self.quarantine)

    def summary(self) -> dict:
        """Report/telemetry summary (sorted, JSON-safe)."""
        return {
            "policy": self.policy,
            "parse_errors": self.parse_errors,
            "isolated_flows": self.isolated_flows,
            "fail_stopped": self.fail_stopped,
            "failstop_drops": self.failstop_drops,
            "quarantined": len(self.quarantine) + self.quarantine_rotated,
            "by_vlan_protocol": {
                f"vlan{vlan}/{protocol}": count
                for (vlan, protocol), count in sorted(self.counts.items())
            },
        }

    def __repr__(self) -> str:
        return (f"<MaliceBarrier {self.name} policy={self.policy} "
                f"errors={self.parse_errors}>")


__all__ = ["MaliceBarrier", "QuarantineEntry", "POLICIES",
           "DEFAULT_QUARANTINE_MAX"]
