"""Router housekeeping costs what is live, not what ever was — and
gives back everything that is not.

A GQ deployment runs for years (the paper's did for six), so anything
the router does per tick or per inmate revert must not grow with the
flow history.  Scripted against the bare router (``RouterHarness``):
``expire_idle_flows`` / ``active_flow_count`` / ``forget_inmate`` walk
the live demux table and evict in creation order; every record idle
past ``flow_idle_timeout`` — dropped and aborted flows as much as live
ones — gives its ports and rows back, and a port space that is
genuinely full refuses the flow instead of unwinding the event loop; a
flow's UDP hold queue exists only while it is needed; and a stray on an
ENFORCED flow's reversed originator tuple — a tuple the flow has a row
for but no rule — is dropped.  A flow that has ended on the wire leaves
at once: a handed-off TCP flow as it closes, a TCP DROP at its verdict;
and nothing a containment server sends after an endpoint verdict, or
on no flow at all, reaches an inmate.
"""

from __future__ import annotations

from repro.core.shim import ResponseShim
from repro.core.verdicts import Verdict
from repro.gateway import housekeeping
from repro.gateway.flows import FlowPhase
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.packet import (
    ACK,
    EthernetFrame,
    FIN,
    IPv4Packet,
    PSH,
    RST,
    SYN,
    TCPSegment,
    UDPDatagram,
)
from repro.obs.journal import Journal
from tests.helpers import RouterHarness, TARGET_IP, TARGET_PORT, newest_flow

VLAN = 2
HISTORY, LIVE = 120, 5


class _CountingMux(dict):
    """``_by_mux`` that counts the records handed out by ``values``."""

    visited = 0

    def values(self):
        for record in super().values():
            self.visited += 1
            yield record


def _aged_router(monkeypatch):
    """HISTORY flows long since gone (every tenth dropped, and released
    at its verdict; the rest evicted), then LIVE enforced ones — every
    other one of those idle."""
    harness = RouterHarness()
    router = harness.router
    for index in range(HISTORY):
        verdict = Verdict.DROP if index % 10 == 0 else Verdict.FORWARD
        harness.establish_flow(VLAN, 30000 + index, verdict=verdict)
    forwarded = HISTORY - HISTORY // 10
    assert len(router._by_mux) == forwarded
    assert router.expire_idle_flows(max_idle=-1.0) == forwarded
    assert not router._by_mux and not router.flowtable.entries
    live = [harness.establish_flow(VLAN, 40000 + index)
            for index in range(LIVE)]
    for record in live[::2]:
        record.last_activity = -1000.0
    harness.drain()
    router._by_mux = mux = _CountingMux(router._by_mux)
    evicted = []
    evict = housekeeping.evict
    monkeypatch.setattr(housekeeping, "evict", lambda router, record: (
        evicted.append(record), evict(router, record)))
    return harness, live, mux, evicted


def test_expiry_visits_only_records_that_still_hold_demux_state(monkeypatch):
    harness, live, mux, evicted = _aged_router(monkeypatch)
    router = harness.router
    # The whole history — the dropped flows too — is gone from the
    # demux table.
    in_table = LIVE
    assert len(mux) == in_table

    assert router.active_flow_count() == LIVE
    assert mux.visited == in_table

    assert router.expire_idle_flows(max_idle=500.0) == 3
    assert mux.visited == 2 * in_table
    assert evicted == live[::2]  # creation order
    assert [record.phase for record in live] == [
        FlowPhase.CLOSED, FlowPhase.ENFORCED] * 2 + [FlowPhase.CLOSED]
    assert router.active_flow_count() == 2


def test_forget_inmate_evicts_the_inmates_live_flows_in_order(monkeypatch):
    harness, live, mux, evicted = _aged_router(monkeypatch)
    router = harness.router
    router.forget_inmate(VLAN + 1)
    assert evicted == []
    router.forget_inmate(VLAN)
    assert evicted == live
    assert mux.visited == 2 * LIVE
    assert router.active_flow_count() == 0
    # Their tuples are free again: the same five-tuple starts afresh.
    again = harness.establish_flow(VLAN, 40000)
    assert again is not live[0] and again.phase is FlowPhase.ENFORCED


def test_terminal_flows_give_their_demux_state_back():
    """A dropped datagram flow keeps its mux port, rows and drop rule
    only while it is of any use: 20,050 DROP verdicts — more than there
    are mux ports — on one router with housekeeping running raise
    nothing, and what is held at any time is what was active within
    ``flow_idle_timeout`` (plus one housekeeping interval)."""
    harness = RouterHarness()
    router = harness.router
    spacing = 0.5
    bound = (router.flow_idle_timeout + router.housekeeping_interval) \
        / spacing + 1
    peak = 0
    for index in range(20050):
        harness.establish_udp_flow(VLAN, 1024 + index % 50000,
                                   verdict=Verdict.DROP)
        harness.sim.run(until=harness.sim.now + spacing)
        harness.drain()
        peak = max(peak, len(router._by_mux))
    assert router.counters["flows_created"] == 20050
    assert router.counters["flows_refused"] == 0
    assert peak <= bound and router.active_flow_count() == 0
    # Rows and rules go with the ports: three keys (both tuples, the
    # server's leg) and one rule apiece.
    assert len(router.flowtable.entries) == 3 * len(router._by_mux)
    assert len(router.flowtable) == len(router._by_mux)
    # ... and all of it once the router has been quiet long enough.
    harness.sim.run(until=harness.sim.now + 1000.0)
    assert not router._by_mux and not router._by_nonce
    assert not router.flowtable.entries and not len(router.flowtable)


def test_aborted_flows_are_reclaimed_like_any_other():
    """A coupled (REWRITE) flow the client resets keeps its rows until
    the idle sweep, like any flow that is not handed off."""
    harness = RouterHarness()
    router = harness.router
    inmate_ip = harness.nat.bind(VLAN)
    for index in range(100):
        record = harness.establish_flow(VLAN, 30000 + index,
                                        verdict=Verdict.REWRITE)
        harness.inmate_tcp(VLAN, inmate_ip, 30000 + index, TARGET_PORT,
                           2000, 9001, RST | ACK)
        assert record.phase is FlowPhase.CLOSED
    assert len(router._by_mux) == 100 and router.active_flow_count() == 0
    harness.sim.run(until=1000.0)
    assert not router._by_mux and not router.flowtable.entries
    # The tuple is free: a SYN on it is a new flow with its own verdict,
    # anything else is dropped as mid-flow.
    harness.drain()
    harness.inmate_tcp(VLAN, inmate_ip, 30000, TARGET_PORT, 2001, 9001,
                       ACK | PSH, b"late")
    assert harness.to_service == harness.upstream == []
    assert harness.establish_flow(VLAN, 30000).phase is FlowPhase.ENFORCED


def test_a_full_port_space_refuses_the_flow():
    """Exhaustion is a refusal with a journalled reason, never an
    exception out of ``inmate_frame`` (i.e. through ``sim.run``)."""
    harness = RouterHarness()
    router = harness.router
    router.PORT_SLOTS = 8
    router.journal = Journal(clock=lambda: harness.sim.now)
    for index in range(8):
        harness.establish_flow(VLAN, 30000 + index)
    assert len(router._by_mux) == 8
    harness.drain()

    inmate_ip = harness.nat.bind(VLAN)
    harness.inmate_tcp(VLAN, inmate_ip, 31000, TARGET_PORT, 1000, 0, SYN)
    assert router.counters["flows_refused"] == 1 and len(router._by_mux) == 8
    assert router.flow_log[-1].verdict == "REFUSED"
    assert harness.to_service == harness.to_vlan == harness.upstream == []
    (event,) = [event for event in router.journal.events()
                if event.kind == "flow.refused"]
    assert event.fields["reason"] == "mux-exhausted"

    # Housekeeping frees a slot; the retransmitted SYN is admitted.
    router.expire_idle_flows(max_idle=-1.0)
    harness.inmate_tcp(VLAN, inmate_ip, 31000, TARGET_PORT, 1000, 0, SYN)
    assert newest_flow(router).phase is FlowPhase.SHIM


def test_udp_hold_queue_exists_only_while_the_verdict_is_pending():
    harness = RouterHarness()
    router = harness.router
    tcp = harness.establish_flow(VLAN, 40000)
    assert tcp.udp_pending is None  # never allocated for a TCP flow
    harness.drain()

    inmate_ip = harness.nat.bind(VLAN)
    harness.inmate_udp(VLAN, inmate_ip, 5353, TARGET_PORT, b"first")
    record = newest_flow(router)
    harness.inmate_udp(VLAN, inmate_ip, 5353, TARGET_PORT, b"second")
    assert [held.payload for held in record.udp_pending] == [
        b"first", b"second"]
    assert harness.upstream == []

    # The verdict replays what was held, in order, and lets it go.
    shim = ResponseShim(record.orig, Verdict.FORWARD, policy="t").to_bytes()
    router.service_frame(EthernetFrame(
        MacAddress("02:00:00:00:00:03"), harness.mac,
        IPv4Packet(router.cs_ip, inmate_ip,
                   UDPDatagram(router.cs_udp_port, record.mux_port, shim))))
    assert [p.udp.payload for p in harness.upstream] == [b"first", b"second"]
    assert record.phase is FlowPhase.ENFORCED and record.udp_pending is None


def test_stray_on_the_reversed_originator_tuple_is_dropped():
    """A NATed FORWARD flow has a row for its reversed originator
    tuple (destination -> the inmate's *internal* address) but no rule
    on it: the destination only ever answers the global address.  A
    packet on that tuple is dropped — not handed to the inmate."""
    harness = RouterHarness()
    router = harness.router
    record = harness.establish_flow(VLAN, 40000)
    assert record.phase is FlowPhase.ENFORCED
    inmate_ip, global_ip = record.orig.orig_ip, record.nat_global
    assert global_ip is not None and global_ip != inmate_ip
    harness.drain()
    before = (record.s2c_packets, record.s2c_bytes,
              router.counters["packets_relayed"])

    def from_target(dst: IPv4Address) -> IPv4Packet:
        segment = TCPSegment(TARGET_PORT, 40000, 9001, 2000, ACK | PSH,
                             payload=b"stray")
        return IPv4Packet(IPv4Address(TARGET_IP), dst, segment)

    router.upstream_packet(from_target(inmate_ip))
    assert harness.to_vlan == harness.upstream == harness.to_service == []
    assert (record.s2c_packets, record.s2c_bytes,
            router.counters["packets_relayed"]) == before
    assert record.phase is FlowPhase.ENFORCED

    # The same segment on the leg the flow does have a rule for goes
    # through, translated back to the internal address.
    router.upstream_packet(from_target(global_ip))
    (delivered,) = harness.to_vlan
    assert delivered.dst == inmate_ip and delivered.tcp.payload == b"stray"


# ----------------------------------------------------------------------
# Retirement: a handed-off TCP flow gives everything back as it closes
# ----------------------------------------------------------------------
CLIENT_ISN, CS_ISN, DST_ISN = 1000, 5000, 9000


class _Ends:
    """The two ends of a handed-off flow on a ``RouterHarness``: the
    inmate (sequence space from ``CLIENT_ISN``, acking the containment
    server's) and the enforced destination (from ``DST_ISN``)."""

    def __init__(self, harness, record) -> None:
        self.harness, self.record = harness, record
        self.sport = record.orig.orig_port

    def client(self, seq: int, ack: int, flags: int,
               payload: bytes = b"") -> None:
        self.harness.inmate_tcp(VLAN, self.record.orig.orig_ip, self.sport,
                                TARGET_PORT, CLIENT_ISN + seq, CS_ISN + ack,
                                flags, payload)

    def destination(self, seq: int, ack: int, flags: int,
                    payload: bytes = b"") -> None:
        record = self.record
        self.harness.router.upstream_packet(IPv4Packet(
            record.dst_ip, record.nat_global,
            TCPSegment(record.dst_port, self.sport, DST_ISN + seq,
                       CLIENT_ISN + ack, flags, payload=payload)))


def _forwarded(verdict=Verdict.FORWARD, rate=None):
    harness = RouterHarness()
    record = harness.establish_flow(VLAN, 40000, verdict=verdict, rate=rate,
                                    client_isn=CLIENT_ISN, dst_isn=DST_ISN)
    assert record.phase is FlowPhase.ENFORCED
    assert harness.router.flowtable.rules(record)
    harness.drain()
    return harness, record, _Ends(harness, record)


def _retired(router, record, keys) -> bool:
    """Whether the router holds nothing of ``record`` any more."""
    gone = not any(router._table.get(key) is not None
                   and router._table[key].record is record for key in keys)
    free = record.mux_port not in router._by_mux
    assert gone == free == (record.mux_port not in router._by_nonce
                            and record.nonce_port not in router._by_nonce)
    return gone


def test_a_closed_forward_fetch_leaves_no_key_and_frees_its_slot():
    harness, record, ends = _forwarded()
    router = harness.router
    keys = list(record.keys)
    ends.client(1, 1, ACK | PSH, b"GET")
    ends.client(4, 1, FIN | ACK)            # the inmate closes its side
    ends.destination(1, 5, ACK)             # acked; the other side open
    ends.destination(1, 5, ACK | PSH, b"200")
    ends.client(5, 4, ACK)
    assert not _retired(router, record, keys)
    ends.destination(4, 5, FIN | ACK)       # closed back
    assert not _retired(router, record, keys)
    ends.client(5, 5, ACK)                  # the last FIN acknowledged
    assert _retired(router, record, keys)
    assert record.phase is FlowPhase.CLOSED and not record.keys
    # The final ACK went out first, translated into the destination's
    # sequence space.
    final = harness.upstream[-1].tcp
    assert (final.flags, final.seq, final.ack) == (
        ACK, CLIENT_ISN + 5, DST_ISN + 5)
    stats = router.flowtable.stats()
    assert stats["retired"] == 2 and stats["occupancy"] == 0
    assert stats["installs"] == stats["retired"] + stats["evictions"]
    assert not router.flowtable.entries and router.active_flow_count() == 0
    # Nothing was journalled, counted or scheduled for it.
    assert router.counters["flows_created"] == 1


def test_both_peers_of_a_farm_fetch_finish_their_close():
    """The packet that finishes a flow is relayed before the flow is
    retired: the inmate reaches TIME_WAIT (or CLOSED once it expires)
    and the web server, which closed second, CLOSED."""
    from repro.core.policy import AllowAll
    from repro.farm import Farm, FarmConfig
    from repro.net.tcp import TcpState
    from repro.services.dhcp import DhcpClient

    farm = Farm(FarmConfig(seed=3))
    web = farm.add_external_host("web", TARGET_IP)
    ends = {}

    def on_accept(conn):
        ends["server"] = conn
        conn.on_data = lambda c, data: c.send(b"pong")
        conn.on_remote_close = lambda c: c.close()

    web.tcp.listen(TARGET_PORT, on_accept)

    def image(host):
        def configured(h):
            def fetch():
                conn = ends["inmate"] = h.tcp.connect(
                    IPv4Address(TARGET_IP), TARGET_PORT)
                conn.on_established = lambda c: c.send(b"ping")
                conn.on_data = lambda c, data: c.close()

            h.sim.schedule(1.0, fetch, label="fetch")

        DhcpClient(host, on_configured=configured).start()

    sub = farm.create_subfarm("close")
    sub.set_default_policy(AllowAll())
    sub.create_inmate(image_factory=image)
    farm.run(until=60.0)
    done = (TcpState.TIME_WAIT, TcpState.CLOSED)
    assert ends["inmate"].state in done
    assert ends["server"].state is TcpState.CLOSED
    router = sub.router
    assert not router._by_mux and not router.flowtable.entries
    assert router.flowtable.stats()["retired"] == 2


def test_a_simultaneous_close_retires_once_both_fins_are_acked():
    harness, record, ends = _forwarded()
    router = harness.router
    keys = list(record.keys)
    ends.client(1, 1, FIN | ACK)    # the two FINs cross
    ends.destination(1, 1, FIN | ACK)
    assert not _retired(router, record, keys)
    ends.client(2, 2, ACK)          # the destination's FIN acknowledged
    assert not _retired(router, record, keys)
    ends.destination(2, 2, ACK)     # and the inmate's
    assert _retired(router, record, keys)
    assert harness.to_vlan[-1].tcp.flags == ACK


def test_an_rst_ended_flow_is_retired():
    """Either end's reset goes on to the other, translated, and
    finishes the flow: its rules count as retired, none as evicted."""
    for side, relayed, translated in (
            ("client", "upstream", (CLIENT_ISN + 1, DST_ISN + 1)),
            ("destination", "to_vlan", (CS_ISN + 1, CLIENT_ISN + 1))):
        harness, record, ends = _forwarded()
        router = harness.router
        keys = list(record.keys)
        getattr(ends, side)(1, 1, RST | ACK)
        assert _retired(router, record, keys), side
        assert record.phase is FlowPhase.CLOSED
        (reset,) = getattr(harness, relayed)
        assert (reset.tcp.flags, reset.tcp.seq, reset.tcp.ack) == (
            (RST | ACK,) + translated), side
        assert harness.to_service == [], side
        stats = router.flowtable.stats()
        assert (stats["retired"], stats["evictions"]) == (2, 0), side


def test_a_reset_reflected_flow_ends_at_the_sink_too():
    """The inmate resets a flow reflected to a subfarm sink that keeps
    talking: the reset reaches the sink, whose side closes, so nothing
    the sink sends after reaches the inmate from the sink's own
    address."""
    from repro.core.policy import ReflectAll
    from repro.farm import Farm, FarmConfig
    from repro.net.tcp import TcpState
    from repro.services.dhcp import DhcpClient

    farm = Farm(FarmConfig(seed=3))
    sub = farm.create_subfarm("reflect")
    sub.router.trace.store = True  # read back below
    sink = sub.add_service_host("sink", accept_any_ip=True)
    sub.register_service("sink", sink.ip, 0)
    ends = {}

    def on_accept(conn):
        ends["sink"] = conn

        def tick():
            if conn.state is TcpState.ESTABLISHED:
                conn.send(b"tick")
                sink.sim.schedule(1.0, tick, label="tick")

        sink.sim.schedule(1.0, tick, label="tick")

    sink.tcp.listen_any(on_accept)

    def image(host):
        def configured(h):
            def fetch():
                conn = h.tcp.connect(IPv4Address(TARGET_IP), TARGET_PORT)
                heard = []

                def on_data(c, data):
                    heard.append(data)
                    if len(heard) == 3:
                        ends["reset_at"] = h.sim.now
                        c.abort()

                conn.on_data = on_data

            h.sim.schedule(1.0, fetch, label="fetch")

        DhcpClient(host, on_configured=configured).start()

    sub.set_default_policy(ReflectAll())
    sub.create_inmate(image_factory=image)
    farm.run(until=90.0)
    assert "reset_at" in ends
    assert ends["sink"].state is TcpState.CLOSED
    router = sub.router
    assert router.trace.rotated_out == 0
    after = [rec for rec in router.trace.records
             if rec.timestamp > ends["reset_at"] and rec.ip is not None
             and rec.ip.src == sink.ip]
    assert after == []
    assert not router._by_mux and not router.flowtable.entries
    stats = router.flowtable.stats()
    assert (stats["retired"], stats["evictions"]) == (2, 0)


def test_a_syn_on_a_retired_tuple_is_a_new_flow():
    harness, record, ends = _forwarded()
    router = harness.router
    ends.client(1, 1, FIN | ACK)
    ends.destination(1, 2, FIN | ACK)
    ends.client(2, 2, ACK)
    # The same tuple and ISN again: not the old flow's, a fresh one
    # with its own verdict.
    again = harness.establish_flow(VLAN, 40000, verdict=Verdict.DROP,
                                   client_isn=CLIENT_ISN, dst_isn=DST_ISN)
    assert again is not record and again.phase is FlowPhase.DROPPED
    assert router.counters["flows_created"] == 2
    assert [entry.verdict for entry in router.flow_log] == ["FORWARD",
                                                           "DROP"]


def test_a_stray_ack_on_a_retired_tuple_is_dropped():
    harness, record, ends = _forwarded()
    ends.client(1, 1, FIN | ACK)
    ends.destination(1, 2, FIN | ACK)
    ends.client(2, 2, ACK)
    harness.drain()
    before = dict(harness.router.counters)
    ends.client(2, 2, ACK | PSH, b"late")
    ends.destination(2, 2, ACK | PSH, b"late")
    assert harness.to_vlan == harness.upstream == harness.to_service == []
    assert harness.router.counters == before
    assert not harness.router._by_mux


def test_a_limited_flows_final_ack_still_reaches_the_world():
    harness, record, ends = _forwarded(verdict=Verdict.LIMIT, rate=1000.0)
    router = harness.router
    keys = list(record.keys)
    block = b"x" * 1460
    ends.client(1, 1, ACK | PSH, block)     # the shaper's burst, spent
    ends.client(1461, 1, ACK | PSH, block)
    ends.client(2921, 1, FIN | ACK)
    ends.destination(1, 2922, FIN | ACK)
    ends.client(2922, 2, ACK)
    assert _retired(router, record, keys)
    assert not any(packet.tcp.flags == ACK and not packet.tcp.payload
                   for packet in harness.upstream), "shaped: still held"
    harness.sim.run(until=harness.sim.now + 30.0)
    final = harness.upstream[-1].tcp
    assert (final.flags, final.seq, final.ack) == (
        ACK, CLIENT_ISN + 2922, DST_ISN + 2)


def test_drop_udp_and_rewrite_flows_wait_for_the_idle_timeout():
    """What has no end on the wire keeps the idle sweep: a dropped or a
    forwarded datagram flow, and a REWRITE flow, closed or reset.  A
    TCP DROP does not wait: its verdict ended it."""
    harness = RouterHarness()
    router = harness.router
    inmate_ip = harness.nat.bind(VLAN)
    tcp_dropped = harness.establish_flow(VLAN, 40000, verdict=Verdict.DROP)
    rewritten = harness.establish_flow(VLAN, 40001, verdict=Verdict.REWRITE)
    datagrams = harness.establish_udp_flow(VLAN, 40002)
    dropped = harness.establish_udp_flow(VLAN, 40003, verdict=Verdict.DROP)
    harness.inmate_tcp(VLAN, inmate_ip, 40001, TARGET_PORT, 1001, 5001,
                       FIN | ACK)
    harness.inmate_tcp(VLAN, inmate_ip, 40001, TARGET_PORT, 1002, 5002, ACK)
    harness.inmate_tcp(VLAN, inmate_ip, 40001, TARGET_PORT, 1002, 5002,
                       RST | ACK)
    assert not tcp_dropped.keys
    held = [rewritten, datagrams, dropped]
    assert all(record.keys for record in held)
    assert list(router._by_mux.values()) == held
    harness.sim.run(until=harness.sim.now + router.flow_idle_timeout
                    + 2 * router.housekeeping_interval)
    assert not router._by_mux and not router.flowtable.entries


# ----------------------------------------------------------------------
# The containment server leaves the path at an endpoint verdict
# ----------------------------------------------------------------------
def _from_cs(harness, record, seq: int, ack: int, flags: int,
             mux_port=None, payload: bytes = b"") -> None:
    """A segment from the containment server toward the inmate, on
    ``record``'s mux port (or ``mux_port``)."""
    router = harness.router
    segment = TCPSegment(router.cs_tcp_port,
                         mux_port if mux_port is not None
                         else record.mux_port, seq, ack, flags,
                         payload=payload)
    router.service_frame(EthernetFrame(
        MacAddress("02:00:00:00:00:03"), harness.mac,
        IPv4Packet(router.cs_ip, record.orig.orig_ip, segment)))


def test_a_server_speaking_after_a_forward_handoff_emits_nothing():
    """The verdict took the server off the flow: its ACK of what the
    inmate sent while coupled, and its FIN, reach no one and move no
    counter — each is a table miss, and no more."""
    harness, record, ends = _forwarded()
    router = harness.router

    def observable():
        stats = router.flowtable.stats()
        return (dict(router.counters), stats.pop("misses"), stats,
                record.s2c_packets, record.s2c_bytes, record.last_activity)

    counters, misses, stats, *accounting = observable()
    _from_cs(harness, record, CS_ISN + 57, CLIENT_ISN + 1 + 24, ACK)
    _from_cs(harness, record, CS_ISN + 57, CLIENT_ISN + 1 + 24, FIN | ACK)
    assert harness.to_vlan == harness.upstream == harness.to_service == []
    assert observable() == (counters, misses + 2, stats, *accounting)
    assert record.phase is FlowPhase.ENFORCED
    assert router.flowtable.rules(record)


def test_a_server_frame_on_no_flow_never_reaches_the_inmate_vlan():
    """A server's segment that matches no flow — a mux port never
    handed out, or one whose flow was evicted — is dropped, not
    delivered raw to the inmate from the server's own address."""
    harness, record, ends = _forwarded()
    router = harness.router
    _from_cs(harness, record, CS_ISN + 1, CLIENT_ISN + 1, ACK | PSH,
             mux_port=record.mux_port + 7, payload=b"planted")
    housekeeping.evict(router, record)
    _from_cs(harness, record, CS_ISN + 57, CLIENT_ISN + 25, ACK | PSH,
             payload=b"late")
    assert harness.to_vlan == harness.upstream == harness.to_service == []


def test_a_tcp_drop_ends_at_its_verdict():
    """The gateway's resets to the inmate and to the server end a TCP
    DROP on the wire: nothing of it is held, no rule goes in, and the
    same SYN again is a new flow with a verdict of its own."""
    harness = RouterHarness()
    router = harness.router
    record = harness.establish_flow(VLAN, 40000, verdict=Verdict.DROP,
                                    client_isn=CLIENT_ISN)
    assert record.phase is FlowPhase.DROPPED and not record.keys
    assert not router._by_mux and not router._by_nonce
    assert not router._table and router.flowtable.stats()["installs"] == 0
    assert [packet.tcp.flags for packet in harness.to_vlan] == [
        SYN | ACK, RST | ACK]
    assert harness.to_service[-1].tcp.flags == RST | ACK
    again = harness.establish_flow(VLAN, 40000, verdict=Verdict.DROP,
                                   client_isn=CLIENT_ISN)
    assert again is not record and router.counters["flows_created"] == 2
    assert [entry.verdict for entry in router.flow_log] == ["DROP", "DROP"]
    assert not router._by_mux and not router._table


def test_a_half_closing_client_gets_the_whole_response():
    """An HTTP/1.0-style client sends its request and closes its side
    before the verdict.  The server's FIN answering that close is not
    relayed after the verdict, so the response arrives whole from the
    real destination, and the flow retires as it closes."""
    from repro.core.policy import AllowAll
    from repro.farm import Farm, FarmConfig
    from repro.net.tcp import TcpState
    from repro.services.dhcp import DhcpClient

    response = b"HTTP/1.0 200 OK\r\n\r\npong"
    farm = Farm(FarmConfig(seed=3))
    web = farm.add_external_host("web", TARGET_IP)

    def on_accept(conn):
        conn.on_data = lambda c, data: (c.send(response), c.close())

    web.tcp.listen(TARGET_PORT, on_accept)
    heard, ends = [], {}

    def image(host):
        def configured(h):
            def fetch():
                conn = ends["inmate"] = h.tcp.connect(
                    IPv4Address(TARGET_IP), TARGET_PORT)
                conn.on_established = lambda c: (
                    c.send(b"GET / HTTP/1.0\r\n\r\n"), c.close())
                conn.on_data = lambda c, data: heard.append(data)

            h.sim.schedule(1.0, fetch, label="fetch")

        DhcpClient(host, on_configured=configured).start()

    sub = farm.create_subfarm("half-close")
    sub.set_default_policy(AllowAll())
    sub.create_inmate(image_factory=image)
    farm.run(until=60.0)
    assert b"".join(heard) == response
    assert ends["inmate"].state in (TcpState.TIME_WAIT, TcpState.CLOSED)
    router = sub.router
    assert [entry.verdict for entry in router.flow_log] == ["FORWARD"]
    assert not router._by_mux and not router.flowtable.entries
    assert router.flowtable.stats()["retired"] == 2
