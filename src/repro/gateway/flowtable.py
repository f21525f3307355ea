"""OpenFlow-style exact-match flow tables: the gateway's datapath.

The table is the router's one per-packet lookup structure.  Every flow
key a live flow answers to — the originator tuple, its reverse, the
mux-port leg of every containment server of the cluster, the enforced
destination's return alias, both directions of a nonce leg — is bound
to a :class:`Row` naming the flow and the *leg* the key is, and, where
that leg's packets are relayed at all, a :class:`Rewrite`: pure data —
ports, an address pair, sequence-number deltas, a resolved egress —
interpreted by the one executor in this module, :func:`apply`.
Rules-as-data is what lets a row be inspected, journaled, dumped
(examples/flowtable_dump.py), aged out on the virtual clock and
re-installed on the next table miss.

The table is exact-match on the router's one flow key, the directed int
tuple ``(src_ip, sport, dst_ip, dport, proto)`` that
``SubfarmRouter._lookup`` computes once per packet and probes this
table with, once; the VLAN is implicit in the inmate-side addressing
each row inherits from its flow record.  In OpenFlow terms: a
:class:`FlowEntry` is a rewrite *installed* (``ofp_flow_mod`` add), the
router's slow path is the controller, and a row that is not installed
is the send-to-controller entry for its key.  The controller sees a
packet only on a miss — no installed rule, or one whose idle/hard
timeout expired, which demotes the flow's rules back to bare rewrites —
or when an entry's kind marks the segment's TCP flags as state-changing
(:data:`SPECS`); having decided, it installs entries and runs the
packet through its row with packet-in disabled, so there is no second
copy of the rewrite.

Timeout semantics (both default off, so the steady-state probe pays a
single float compare):

* *hard* — the entry dies ``hard_timeout`` virtual seconds after
  install, unconditionally (``expires_at``).
* *idle* — the entry dies once the flow has seen no activity for
  ``idle_timeout`` virtual seconds, judged against the record's
  ``last_activity`` (the same clock ``expire_idle_flows`` uses, so the
  two aging mechanisms cannot disagree about what "idle" means).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.net.packet import (
    ACK,
    FIN,
    IPv4Packet,
    PROTO_TCP,
    PROTO_UDP,
    RST,
    SYN,
    UDPDatagram,
)

_MASK = 0xFFFFFFFF
_INF = float("inf")

# Action kinds: which row of SPECS governs the entry.
ACT_TCP_C2D = 0    # endpoint verdicts, originator -> enforced destination
ACT_TCP_D2C = 1    # endpoint verdicts, destination -> originator
ACT_TCP_C2CS = 2   # coupled (SHIM, REWRITE), originator -> containment server
ACT_TCP_CS2C = 3   # coupled, containment server -> originator
ACT_UDP_C2D = 4
ACT_UDP_D2C = 5
ACT_UDP_C2CS = 6   # coupled UDP request leg (the shim is the payload prefix)
ACT_DROP_TCP = 7
ACT_DROP_UDP = 8
ACT_TCP_CS2W = 9   # nonce leg: the server's onward connection -> the world
ACT_TCP_W2CS = 10  # nonce leg, return path

# Legs: which party a key's packets come from, i.e. which controller
# handler takes a packet no installed rule did (SubfarmRouter._legs).
LEG_ORIGINATOR = 0  # the flow's originator
LEG_RETURN = 1      # whoever answers it: the reversed tuple, the enforced
                    # destination's alias, a nonce leg's return path
LEG_CS = 2          # a containment server, on the flow's mux port
LEG_NONCE = 3       # a containment server's onward connection


class KindSpec(NamedTuple):
    """Everything that differs between action kinds, as data.  Entries
    hold their row by reference (``FlowEntry.spec``)."""

    name: str
    proto: int
    #: TCP flags that send the packet to the controller instead of
    #: being rewritten here (0: the entry handles every segment).
    packet_in: int
    #: Which side of the flow's accounting a packet lands on.  True:
    #: ``c2s_*``.  False: ``s2c_*``.  None: neither — a dropped tuple
    #: (whose rule has no egress and swallows), the server's own nonce
    #: connection.
    originator: Optional[bool]
    #: Whether a hit refreshes the record's ``last_activity``.
    touch: bool
    #: Router counter bumped per packet (None: not counted as relayed).
    counter: Optional[str]
    #: Emit ``ack = 0`` when the segment carries no ACK flag (the
    #: containment server never sees a client's garbage ack field).
    ack_zero: bool
    #: Whether a FIN marks ``record.client_fin`` (content-control flows
    #: need it to synthesize the client's next sequence number).
    fin_marks: bool


SPECS = {
    ACT_TCP_C2D: KindSpec("tcp-c2d", PROTO_TCP, SYN | RST, True, True,
                          "packets_relayed", False, False),
    ACT_TCP_D2C: KindSpec("tcp-d2c", PROTO_TCP, 0, False, True,
                          "packets_relayed", False, False),
    ACT_TCP_C2CS: KindSpec("tcp-c2cs", PROTO_TCP, SYN | RST, True, True,
                           "packets_relayed", True, True),
    # The CS leg never refreshed last_activity on the slow path; an RST
    # from the server is its abort and belongs to the controller.
    ACT_TCP_CS2C: KindSpec("tcp-cs2c", PROTO_TCP, RST, False, False,
                           "packets_relayed", False, False),
    ACT_UDP_C2D: KindSpec("udp-c2d", PROTO_UDP, 0, True, True,
                          "packets_relayed", False, False),
    ACT_UDP_D2C: KindSpec("udp-d2c", PROTO_UDP, 0, False, True,
                          None, False, False),
    ACT_UDP_C2CS: KindSpec("udp-c2cs", PROTO_UDP, 0, True, True,
                           "shims_injected", False, False),
    # A SYN on a dropped tuple may be a new incarnation of the flow.
    ACT_DROP_TCP: KindSpec("drop-tcp", PROTO_TCP, SYN, None, True,
                           None, False, False),
    ACT_DROP_UDP: KindSpec("drop-udp", PROTO_UDP, 0, None, True,
                           None, False, False),
    # The nonce leg is NAT only; like the mux-port leg, what the server
    # sends is not the flow's activity, what comes back for it is.
    ACT_TCP_CS2W: KindSpec("tcp-cs2w", PROTO_TCP, 0, None, False,
                           "packets_relayed", False, False),
    ACT_TCP_W2CS: KindSpec("tcp-w2cs", PROTO_TCP, 0, None, True,
                           "packets_relayed", False, False),
}

# Emission codes: which egress the translated packet leaves through —
# the rule's target as data (dumps, the report, the verifier).
# The object itself is resolved once, at compile time (FlowEntry.egress).
EMIT_VLAN = 0      # emit_arg = VLAN id
EMIT_SERVICE = 1   # emit_arg = service IPv4Address
EMIT_UPSTREAM = 2  # emit_arg unused
EMIT_CS = 3        # emit_arg = containment-server IPv4Address (fault seam)
EMIT_NONE = 4      # no egress: the rule swallows (a DROP flow's)


class Row:
    """What the table holds under one flow key: the flow and the leg.
    A row that is no more than that is never relayed: its packets are
    the controller's to consume (or drop)."""

    __slots__ = ("key", "record", "leg")
    spec = None
    installed = False

    def __init__(self, key, record, leg):
        self.key = key
        self.record = record
        self.leg = leg

    def __repr__(self) -> str:
        name = self.spec.name if self.spec is not None else "-"
        return f"<{type(self).__name__} leg={self.leg} {name} {self.key}>"


class Rewrite(Row):
    """A row whose leg is relayed, and how: pure data, interpreted by
    :func:`apply`.  Not installed, it is no rule: its packets go to the
    controller, which runs them through the rewrite itself.

    ``seq_delta``/``ack_delta`` are mod-2^32 *adders* (negative shifts
    stored as their two's complement residue), so every translation is
    the same ``(value + delta) & 0xFFFFFFFF`` regardless of direction.
    ``egress`` is where the rewritten packet leaves: the target
    ``emit_code``/``emit_arg`` name, resolved to its
    :class:`~repro.gateway.egress.Egress` (behind the flow's LIMIT
    shaper when ``shaped``) by whoever compiled the row; a rewrite with
    no egress swallows (OpenFlow's empty action list).
    """

    __slots__ = (
        "spec", "out_sport", "out_dport", "src_ip", "dst_ip",
        "seq_delta", "ack_delta",
        "emit_code", "emit_arg", "egress", "shaped", "payload_prefix",
    )

    def __init__(self, key, record, leg, kind, out_sport, out_dport,
                 src_ip, dst_ip, egress=None, seq_delta=0, ack_delta=0,
                 emit_code=EMIT_NONE, emit_arg=None, shaped=False,
                 payload_prefix=b""):
        self.key = key
        self.record = record
        self.leg = leg
        self.spec = SPECS[kind]
        self.out_sport = out_sport
        self.out_dport = out_dport
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.seq_delta = seq_delta
        self.ack_delta = ack_delta
        self.emit_code = emit_code
        self.emit_arg = emit_arg
        self.egress = egress
        self.shaped = shaped
        self.payload_prefix = payload_prefix


_REWRITE_FIELDS = Row.__slots__ + Rewrite.__slots__


class FlowEntry(Rewrite):
    """One match-action rule: a rewrite installed under its key, with
    timeouts and a hit count."""

    __slots__ = ("hits", "installed_at", "idle_timeout", "expires_at")
    installed = True

    def __init__(self, rewrite, installed_at=0.0, idle_timeout=None,
                 hard_timeout=None):
        for name in _REWRITE_FIELDS:
            setattr(self, name, getattr(rewrite, name))
        self.hits = 0
        self.installed_at = installed_at
        self.idle_timeout = idle_timeout
        self.expires_at = (installed_at + hard_timeout
                          if hard_timeout is not None else _INF)

    def demoted(self) -> Rewrite:
        """The rewrite alone again, to take the key back when the rule
        times out or its flow aborts."""
        rewrite = object.__new__(Rewrite)
        for name in _REWRITE_FIELDS:
            setattr(rewrite, name, getattr(self, name))
        return rewrite

    def expired(self, now: float) -> bool:
        return now >= self.expires_at or (
            self.idle_timeout is not None
            and now - self.record.last_activity >= self.idle_timeout)

    def timeout_reason(self, now: float) -> str:
        return "hard" if now >= self.expires_at else "idle"

    def describe(self) -> dict:
        """Flow_mod-style view of the rule for dumps and the report."""
        return {
            "match": {
                "src": self.key[0], "sport": self.key[1],
                "dst": self.key[2], "dport": self.key[3],
                "proto": self.key[4],
            },
            "action": self.spec.name,
            "out_sport": self.out_sport,
            "out_dport": self.out_dport,
            "seq_delta": self.seq_delta,
            "ack_delta": self.ack_delta,
            "emit": ("vlan", "service", "upstream", "cs",
                     "none")[self.emit_code],
            "shaped": self.shaped,
            "hits": self.hits,
            "installed_at": self.installed_at,
            "idle_timeout": self.idle_timeout,
            "hard_expires_at": (None if self.expires_at == _INF
                                else self.expires_at),
            "vlan": self.record.vlan,
            "phase": self.record.phase.value,
            "verdict": self.record.verdict_name,
        }


class FlowTable:
    """One subfarm's exact-match table plus its counters.

    ``entries`` is the raw probe dict, flow key -> :class:`Row` — the
    router aliases it as ``_table`` so the per-packet path is one
    C-level dict hit.  Keys enter it through :meth:`bind` and leave
    through :meth:`unbind` only; everything the table reports is about
    *installed* rules.  Stats are plain ints bumped on the packet path;
    telemetry reads the copy :meth:`sync_metrics` takes at flow-rate
    events (install/evict/stats), costing the datapath nothing.
    """

    def __init__(self, name: str, telemetry=None) -> None:
        self.name = name
        self.entries: Dict[tuple, Row] = {}
        self.occupancy = 0
        self.hits = 0
        self.misses = 0
        self.installs = 0
        self.evictions = 0
        self.timeout_idle = 0
        self.timeout_hard = 0
        # (occupancy, hits, misses, installs, idle, hard) for telemetry.
        self._synced = None
        tel = telemetry
        if tel is not None and tel.enabled:
            self._synced = (0, 0, 0, 0, 0, 0)
            tel.gauge(
                "flowtable.occupancy", "Installed flow-table entries"
            ).register(lambda: float(self._synced[0]), subfarm=name)
            for index, (metric, help, labels) in enumerate((
                ("flowtable.hits", "Flow-table probe hits", {}),
                ("flowtable.misses",
                 "Flow-table misses (slow-path packets)", {}),
                ("flowtable.installs", "Entries installed", {}),
                ("flowtable.evictions.timeout", "Entries aged out",
                 {"reason": "idle"}),
                ("flowtable.evictions.timeout", "Entries aged out",
                 {"reason": "hard"}),
            ), 1):
                tel.counter(metric, help).register(
                    lambda index=index: self._synced[index],
                    subfarm=name, **labels)

    def __len__(self) -> int:
        return self.occupancy

    def bind(self, row: Row) -> None:
        """Put ``row`` under its key, whatever answered the key before
        (an installed rule it displaces counts as evicted).  The key is
        re-inserted, so the table iterates in binding order: the sweep
        ages flows in the order their rules went in."""
        held = self.entries.pop(row.key, None)
        if held is None or held.record is not row.record:
            row.record.keys.append(row.key)
        if held is not None and held.installed:
            self.occupancy -= 1
            self.evictions += 1
        self.entries[row.key] = row
        if row.installed:
            self.occupancy += 1

    def unbind(self, record) -> None:
        """Take every key ``record`` still answers to out of the table
        (its rules uninstalled first).  A key a newer flow has since
        bound is that flow's, and stays."""
        entries = self.entries
        for key in record.keys:
            row = entries.get(key)
            if row is not None and row.record is record:
                del entries[key]
        record.keys.clear()

    def rules(self, record=None) -> List[FlowEntry]:
        """The installed rules, of one flow or of the whole table."""
        if record is None:
            return [row for row in self.entries.values() if row.installed]
        return [row for row in map(self.entries.get, record.keys)
                if row is not None and row.installed
                and row.record is record]

    def sync_metrics(self) -> None:
        """Publish the plain-int stats to telemetry: a snapshot shows
        them as of the last call, as it always has."""
        if self._synced is not None:
            self._synced = (self.occupancy, self.hits, self.misses,
                            self.installs, self.timeout_idle,
                            self.timeout_hard)

    def stats(self) -> dict:
        self.sync_metrics()
        return {
            "occupancy": self.occupancy,
            "hits": self.hits,
            "misses": self.misses,
            "installs": self.installs,
            "evictions": self.evictions,
            "timeout_evictions": {"idle": self.timeout_idle,
                                  "hard": self.timeout_hard},
        }

    def snapshot(self) -> List[dict]:
        """Describe every installed rule (stable order: install time,
        then key) — the ``flow dump`` equivalent."""
        return [entry.describe() for entry in
                sorted(self.rules(),
                       key=lambda e: (e.installed_at, e.key))]

    def expired_entries(self, now: float) -> List[FlowEntry]:
        return [entry for entry in self.rules() if entry.expired(now)]

    def world_grants(self) -> List[dict]:
        """Every installed rule that emits toward the upstream trunk,
        as abstract ``(vlan, proto, dport, verdict)`` tuples.

        This is the compiled-plane evidence the isolation verifier
        checks against a certificate's grant table: an upstream-emitting
        entry outside any certified grant is a leak in the *installed*
        rules even if no packet has hit it yet (the P4Control stance —
        verify what was compiled, not just what was decided).  A rule
        with no egress swallows what it matches (a DROP flow's,
        ``EMIT_NONE``): it emits nowhere.
        """
        grants = []
        for entry in sorted(self.rules(),
                            key=lambda e: (e.installed_at, e.key)):
            if entry.emit_code != EMIT_UPSTREAM or entry.egress is None:
                continue
            record = entry.record
            grants.append({
                "vlan": record.vlan,
                "proto": entry.key[4],
                "dport": entry.out_dport,
                "dst": str(entry.dst_ip),
                "verdict": record.verdict_name,
                "kind": entry.spec.name,
            })
        return grants


def apply(router, row: Rewrite, packet: IPv4Packet,
          packet_in: bool = True) -> None:
    """The executor: rewrite ``packet`` as ``row`` prescribes and emit
    it.  Table hits arrive with ``packet_in`` enabled, so
    state-changing segments go to the controller; the controller runs
    packets through their rows with it disabled.  Nothing here may
    allocate per-flow state."""
    (_name, proto, packet_in_flags, originator, touch, counter, ack_zero,
     fin_marks) = row.spec
    record = row.record
    transport = packet.payload
    flags = transport.flags if proto == PROTO_TCP else 0
    if packet_in and flags & packet_in_flags:
        router._legs[row.leg](row, packet)   # like a miss at the row
        return
    if touch:
        record.last_activity = router.sim.now
    egress = row.egress
    if egress is None:
        return
    payload = transport.payload
    if originator:
        record.c2s_packets += 1
        record.c2s_bytes += len(payload)
        if fin_marks and flags & FIN:
            record.client_fin = True
    elif originator is False:
        record.s2c_packets += 1
        record.s2c_bytes += len(payload)
    if proto == PROTO_TCP:
        # A zero delta passes the int through untouched: traces hold
        # sequence numbers by reference, and a fresh equal int per
        # packet is 32 bytes a streaming run never gets back.
        seq = transport.seq
        if row.seq_delta:
            seq = (seq + row.seq_delta) & _MASK
        if flags & ACK:
            ack = (transport.ack + row.ack_delta) & _MASK
        else:
            ack = 0 if ack_zero else transport.ack
        out = transport.rebind(row.out_sport, row.out_dport, seq, ack)
    else:
        out = UDPDatagram(row.out_sport, row.out_dport,
                          row.payload_prefix + payload)
    if counter is not None:
        router.counters[counter] += 1
    egress.send(IPv4Packet.wrap(row.src_ip, row.dst_ip, out, proto))
