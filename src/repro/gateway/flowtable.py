"""OpenFlow-style exact-match flow tables: the gateway's datapath.

The table is the router's one per-packet lookup structure.  Every flow
key a live flow answers to — the originator tuple, its reverse, the
mux-port leg of every containment server of a coupled flow, the
enforced destination's return alias, both directions of a nonce leg —
is bound to a :class:`Row` naming the flow and the *leg* the key is,
and, where that leg's packets are relayed at all, a :class:`Rewrite`:
pure data — ports, an address pair, sequence-number deltas, a resolved
egress — interpreted by the one executor in this module,
:func:`apply`.
Rules-as-data is what lets a row be inspected, journaled and dumped
(examples/flowtable_dump.py).

The table is exact-match on the router's one flow key, the directed int
tuple ``(src_ip, sport, dst_ip, dport, proto)`` that
``SubfarmRouter._lookup`` computes once per packet and probes this
table with, once; the VLAN is implicit in the inmate-side addressing
each row inherits from its flow record.  In OpenFlow terms: a
:class:`FlowEntry` is a rewrite *installed* (``ofp_flow_mod`` add), the
router's slow path is the controller, and a row that is not installed
is the send-to-controller entry for its key.  The controller sees a
packet only on a miss — no installed rule — or when an entry's kind
marks the segment's TCP flags as state-changing (:data:`SPECS`);
having decided, it installs entries and runs the packet through its
row with packet-in disabled, so there is no second copy of the
rewrite.  Rules are permanent (``OFP_FLOW_PERMANENT``): installed at
the verdict, they leave with their flow's keys (``FlowTable.unbind``)
— at its close, its eviction or its abort — and never age on their
own.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, NamedTuple, Optional

from repro.net.packet import (
    ACK,
    FIN,
    IPv4Packet,
    PROTO_TCP,
    PROTO_UDP,
    RST,
    SYN,
    TCPSegment,
    UDPDatagram,
)

_MASK = 0xFFFFFFFF
_new = object.__new__

# Action kinds: which row of SPECS governs the entry.
ACT_TCP_C2D = 0    # endpoint verdicts, originator -> enforced destination
ACT_TCP_D2C = 1    # endpoint verdicts, destination -> originator
ACT_TCP_C2CS = 2   # coupled (SHIM, REWRITE), originator -> containment server
ACT_TCP_CS2C = 3   # coupled, containment server -> originator
ACT_UDP_C2D = 4
ACT_UDP_D2C = 5
ACT_UDP_C2CS = 6   # coupled UDP request leg (the shim is the payload prefix)
ACT_DROP_UDP = 7
ACT_TCP_CS2W = 8   # nonce leg: the server's onward connection -> the world
ACT_TCP_W2CS = 9   # nonce leg, return path

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
    #: What the flow's close means to the table (``CLOSE_*``).
    close: int


# Close tracking: what a FIN (or RST) through an entry of the kind does.
CLOSE_NONE = 0
#: A FIN marks ``record.client_fin``: a coupled flow needs it to
#: synthesize the client's next sequence number.
CLOSE_MARK = 1
#: Both directions of a handed-off flow: once each FIN has been relayed
#: and acknowledged, or an RST relayed, the flow is finished and
#: retired — after the packet that finished it has been emitted.
#: ``record.closing`` holds, per direction (index: ``originator``), the
#: ack that acknowledges its FIN, or :data:`FIN_ACKED`.
CLOSE_RETIRE = 2
FIN_ACKED = -1

SPECS = {
    ACT_TCP_C2D: KindSpec("tcp-c2d", PROTO_TCP, SYN | RST, True, True,
                          "packets_relayed", False, CLOSE_RETIRE),
    ACT_TCP_D2C: KindSpec("tcp-d2c", PROTO_TCP, 0, False, True,
                          "packets_relayed", False, CLOSE_RETIRE),
    ACT_TCP_C2CS: KindSpec("tcp-c2cs", PROTO_TCP, SYN | RST, True, True,
                           "packets_relayed", True, CLOSE_MARK),
    # The CS leg never refreshed last_activity on the slow path; an RST
    # from the server is its abort and belongs to the controller.
    ACT_TCP_CS2C: KindSpec("tcp-cs2c", PROTO_TCP, RST, False, False,
                           "packets_relayed", False, CLOSE_NONE),
    ACT_UDP_C2D: KindSpec("udp-c2d", PROTO_UDP, 0, True, True,
                          "packets_relayed", False, CLOSE_NONE),
    ACT_UDP_D2C: KindSpec("udp-d2c", PROTO_UDP, 0, False, True,
                          None, False, CLOSE_NONE),
    ACT_UDP_C2CS: KindSpec("udp-c2cs", PROTO_UDP, 0, True, True,
                           "shims_injected", False, CLOSE_NONE),
    ACT_DROP_UDP: KindSpec("drop-udp", PROTO_UDP, 0, None, True,
                           None, False, CLOSE_NONE),
    # The nonce leg is NAT only; like the mux-port leg, what the server
    # sends is not the flow's activity, what comes back for it is.
    ACT_TCP_CS2W: KindSpec("tcp-cs2w", PROTO_TCP, 0, None, False,
                           "packets_relayed", False, CLOSE_NONE),
    ACT_TCP_W2CS: KindSpec("tcp-w2cs", PROTO_TCP, 0, None, True,
                           "packets_relayed", False, CLOSE_NONE),
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
    """One match-action rule: a rewrite compiled to be installed under
    its key.  :func:`~repro.gateway.handoff.install` stamps its install
    time and zeroes its hit count as it binds it."""

    __slots__ = ("hits", "installed_at")
    installed = True
    # The rewrite's constructor under the rule's own name, so a rule
    # can be counted as it is built (the ledger's tracer wraps it).
    __init__ = Rewrite.__init__

    def demoted(self) -> Rewrite:
        """The rewrite alone again, to take the key back when the
        flow aborts."""
        rewrite = object.__new__(Rewrite)
        for name in _REWRITE_FIELDS:
            setattr(rewrite, name, getattr(self, name))
        return rewrite

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
    *installed* rules, every one of which is still installed
    (``occupancy``), was displaced or demoted (``evictions``) or went
    with its finished flow (``retired``).  Stats are plain ints bumped
    on the packet path; telemetry reads them when it snapshots,
    costing the datapath nothing.
    """

    def __init__(self, name: str, telemetry=None) -> None:
        self.name = name
        self.entries: Dict[tuple, Row] = {}
        self.occupancy = 0
        self.hits = 0
        self.misses = 0
        self.installs = 0
        self.evictions = 0
        self.retired = 0
        tel = telemetry
        if tel is not None and tel.enabled:
            tel.gauge(
                "flowtable.occupancy", "Installed flow-table entries"
            ).register(lambda: float(self.occupancy), subfarm=name)
            for attr, help in (
                ("hits", "Flow-table probe hits"),
                ("misses", "Flow-table misses (slow-path packets)"),
                ("installs", "Entries installed"),
            ):
                tel.counter(f"flowtable.{attr}", help).register(
                    partial(getattr, self, attr), subfarm=name)

    def __len__(self) -> int:
        return self.occupancy

    def bind(self, row: Row) -> None:
        """Put ``row`` under its key, whatever answered the key before
        (an installed rule it displaces counts as evicted).  The key is
        re-inserted, so the table iterates in binding order."""
        held = self.entries.pop(row.key, None)
        if held is None or held.record is not row.record:
            row.record.keys.append(row.key)
        if held is not None and held.installed:
            self.occupancy -= 1
            self.evictions += 1
        self.entries[row.key] = row
        if row.installed:
            self.occupancy += 1

    def unbind(self, record, keys=None) -> int:
        """Take ``keys`` (default: every key ``record`` answers to) out
        of the table with their installed rules; a key a newer flow has
        since bound is that flow's, and stays.  Returns the rules gone."""
        entries = self.entries
        rules = 0
        for key in record.keys if keys is None else keys:
            row = entries.get(key)
            if row is not None and row.record is record:
                del entries[key]
                rules += row.installed
        if keys is None:
            record.keys.clear()
        else:
            record.keys[:] = [key for key in record.keys if key not in keys]
        self.occupancy -= rules
        return rules

    def rules(self, record=None) -> List[FlowEntry]:
        """The installed rules, of one flow or of the whole table."""
        if record is None:
            return [row for row in self.entries.values() if row.installed]
        return [row for row in map(self.entries.get, record.keys)
                if row is not None and row.installed
                and row.record is record]

    def stats(self) -> dict:
        return {
            "occupancy": self.occupancy,
            "hits": self.hits,
            "misses": self.misses,
            "installs": self.installs,
            "evictions": self.evictions,
            "retired": self.retired,
        }

    def snapshot(self) -> List[dict]:
        """Describe every installed rule (stable order: install time,
        then key) — the ``flow dump`` equivalent."""
        return [entry.describe() for entry in
                sorted(self.rules(),
                       key=lambda e: (e.installed_at, e.key))]


def apply(router, row: Rewrite, packet: IPv4Packet,
          packet_in: bool = True) -> None:
    """The executor: rewrite ``packet`` as ``row`` prescribes and emit
    it.  Table hits arrive with ``packet_in`` enabled, so
    state-changing segments go to the controller; the controller runs
    packets through their rows with it disabled.  Nothing here
    allocates per-flow state but a closing flow's ``closing`` pair,
    and the packet that finishes a flow retires it once emitted."""
    (_name, proto, packet_in_flags, originator, touch, counter, ack_zero,
     close) = row.spec
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
        if close == CLOSE_MARK and flags & FIN:
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
        # Slot fill, no constructor frame: the ports and addresses were
        # compiled into the row, seq and ack are masked above or the
        # arriving segment's own.
        out = _new(TCPSegment)
        out.sport = row.out_sport
        out.dport = row.out_dport
        out.seq = seq
        out.ack = ack
        out.flags = flags
        out.window = transport.window
        out.payload = payload
    else:
        out = UDPDatagram(row.out_sport, row.out_dport,
                          row.payload_prefix + payload)
    if counter is not None:
        router.counters[counter] += 1
    wrapped = _new(IPv4Packet)
    wrapped.src = row.src_ip
    wrapped.dst = row.dst_ip
    wrapped.proto = proto
    wrapped.ttl = 64
    wrapped.ident = 0
    wrapped.payload = out
    egress.send(wrapped)
    if close != CLOSE_RETIRE:
        return
    closing = record.closing
    if closing is None and not flags & (FIN | RST):
        return
    if flags & RST:
        router._retire(record)
        return
    if closing is None:
        closing = record.closing = [None, None]
    # This packet's ack may acknowledge the other direction's FIN (in
    # the sequence space that direction was emitted in, which is the
    # one this side acks in); its own FIN is acknowledged by the ack
    # just past it, as emitted.
    theirs = not originator
    if flags & ACK and transport.ack == closing[theirs]:
        closing[theirs] = FIN_ACKED
    if flags & FIN:
        closing[originator] = (seq + len(payload) + 1) & _MASK
    elif closing[0] == closing[1] == FIN_ACKED:
        router._retire(record)
