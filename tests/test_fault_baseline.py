"""Empty fault plan ⇒ byte-identical digests vs the tracked baselines.

The fault plane's determinism contract (docs/RESILIENCE.md): an empty
`FaultPlan` installs nothing — no injector, no RNG streams, no
scheduled events, no telemetry families — so a faultless farm's run
digest is byte-identical to the pre-fault-plane build.  These tests
pin that against the seed-farm and campaign digests tracked in
`tests/golden/farm_digests.json`.

A deliberate re-pin is shown to have moved nothing else by putting the
old behaviour back with a monkeypatch and reproducing the old pins,
held here as constants: `V1_PINS` (the `gq.telemetry/1` snapshot),
`OLD_WIRE_PINS` (the endpoint that sent a pure ACK behind every
delivery and every FIN, and the gateway that took the request shim
out of a forwarded destination's acks), `OLD_TABLE_PINS` (the flow
table that kept a finished flow until the idle sweep, and whose
telemetry read its stats as of the last install or eviction) and
`OLD_PATH_PINS` (the gateway that kept the containment server on a
flow's path after an endpoint verdict and a TCP DROP until the idle
sweep, and let a server's frame on no flow out raw) and
`OLD_AGING_PINS` (the flow table whose entries had idle and hard
timeouts, and the fault-matrix shard that digested its whole snapshot
inline), `OLD_KNOBS_PINS` (FarmConfig's six fields that no caller
set, now constants of their components) and `OLD_SURFACE_PINS` (the
policy surface whose service lookup bound a missing service for every
atom after its first reflect) and `OLD_CLOSE_PINS` (the end-of-stream
event that fired only in ESTABLISHED and SYN_RCVD, so a REWRITE flow
whose inmate closed first never closed its server's side) and
`OLD_SAMPLING_PINS` (FarmConfig's two sampling intervals, the
journal's sample ticks and rings, and the run loop's strided depth
sample) and `OLD_HANDSHAKE_PINS` (the bare third ACK of every
handshake: the endpoint's, the gateway's ahead of the request shim,
and the handoff replay's) and `OLD_SEGMENTS_PINS` (the endpoint that
flushed every write and close at once, answered the data of a
data-and-FIN segment before its FIN, and the containment server that
went on acking and closing after an endpoint verdict).  Each older
fixture stands on the newer ones, since its pins were recorded before
them too.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import defaultdict
from heapq import heappop
from math import inf

import pytest

from repro.core import policy as policy_module
from repro.core.policy import UNBOUND, AllowAll
from repro.experiments.fault_matrix import build_fault_farm
from repro.experiments.registry import ARTEFACTS
from repro.farm import Farm, FarmConfig
from repro.faults import FaultPlan
from repro.core.verdicts import Verdict
from repro.fuzz.generators import SOLO_TARGETS
from repro.fuzz.router import RouterScript, run_script
from repro.fuzz.runner import (QUICK_FRAMES, QUICK_ROUTER_SCRIPTS,
                               QUICK_SEED, QUICK_SOLO_ITERATIONS,
                               fuzz_farm, fuzz_target)
from repro.gateway import admission, coupling, handoff, housekeeping
from repro.gateway.flows import LIVE_PHASES, FlowPhase
from repro.gateway.flowtable import (
    ACT_TCP_C2D,
    ACT_TCP_D2C,
    CLOSE_NONE,
    CLOSE_RETIRE,
    SPECS,
    FlowTable,
    KindSpec,
    apply,
)
from repro.gateway.router import SubfarmRouter
from repro.net.addresses import IPv4Address
from repro.net.http import echo
from repro.net.packet import (ACK, FIN, PSH, IPv4Packet, PROTO_TCP, RST,
                              SYN, TCPSegment)
from repro.net import tcp as tcp_module
from repro.net.tcp import TcpConnection, TcpState, seq_add, seq_lt, seq_sub
from repro.obs.journal import Journal, NullJournal
from repro.parallel.tasks import TARGET_IP, TARGET_PORT, \
    _streaming_image, farm_digest
from repro.shape import NUMBER
from repro.sim.engine import Simulator
from repro.verify import certify_farm
from tests import golden, test_certificate_corpus, test_fastpath, \
    test_obs_parity, test_wire_carriers
from tests.golden import FARM_PINS, farm_pin, script_digests, wire_digest
from tests.helpers import run_farm

pytestmark = pytest.mark.integration


class TestTrackedBaselines:
    def test_farm_digest_matches_the_pin(self):
        """run_farm on the seed farm must still produce the pinned
        digest."""
        assert FARM_PINS["farm"]() == farm_pin("farm")

    def test_campaign_digest_matches_the_pin(self):
        """The tracked 8-shard campaign digest must be reproducible
        serially, fault plane present but empty."""
        assert FARM_PINS["campaign"]() == farm_pin("campaign")


#: The pins that folded the whole ``gq.telemetry/1`` snapshot JSON, as
#: recorded at the last commit that emitted it, with the sections that
#: commit's snapshot carried beyond today's six keys (the span counts
#: are what its per-flow span recorder had seen by the end of each
#: run).
V1_PINS = [
    # tests/golden/farm_digests.json "farm", as it read under /1.
    ((11, 3, 40, 120.0), {"spans": 15, "traces": 3, "evicted": 0},
     lambda result: result["digest"],
     "8621645c7cf7d77b3152a43ec6d82e83873871c4ce28b6f4a5ad71575637a91f"),
    # tests/golden/router_wire.json "farm-seed-23".
    ((23, 2, 12, 60.0), {"spans": 10, "traces": 2, "evicted": 0},
     lambda result: wire_digest(
         {key: result[key]
          for key in ("digest", "events", "packets_relayed")}),
     "85835cfef3e0674fe5e2f59d10eebb0df833d705474f615cd6e0c4ce7a48c6b7"),
]


# ----------------------------------------------------------------------
# The table every pin up to the deletion of entry aging was recorded on
# ----------------------------------------------------------------------
#: FarmConfig's entry timeouts, which stood just before ``batch_window``
#: in FIELDS and in _LEAST.
AGING_FIELDS = {"flowtable_idle_timeout": (NUMBER, None),
                "flowtable_hard_timeout": (NUMBER, None)}


def _before_batch_window(table: dict, rows: dict) -> dict:
    out = {}
    for name, row in table.items():
        if name == "batch_window":
            out.update(rows)
        out[name] = row
    return out


def _inline_fault_shard(seed, scenario="baseline", pending_policy="drop"):
    """``fault_farm_shard``'s digest as the shard folded it inline:
    counters per subfarm in creation order, flow logs, the upstream
    trace, the whole telemetry snapshot (``flowtable.*`` included),
    then the resilience summaries."""
    farm = build_fault_farm(seed, scenario=scenario,
                            pending_policy=pending_policy)
    subs = list(farm.subfarms.values())
    digest = hashlib.sha256()
    for sub in subs:
        digest.update(json.dumps({sub.name: dict(sub.router.counters)},
                                 sort_keys=True).encode())
        for entry in sub.router.flow_log:
            digest.update(
                f"{entry.timestamp:.9f}|{entry.vlan}|{entry.verdict}"
                f"|{entry.orig}|{entry.policy}".encode())
    for rec in farm.gateway.upstream_trace.records:
        digest.update(rec.frame.to_bytes())
    digest.update(json.dumps(farm.telemetry_snapshot(),
                             sort_keys=True).encode())
    for sub in sorted(subs, key=lambda sub: sub.name):
        if sub.resilience is not None:
            digest.update(json.dumps({sub.name: sub.resilience.summary()},
                                     sort_keys=True).encode())
    return {"digest": digest.hexdigest()}


# ----------------------------------------------------------------------
# The config every pin up to the knobs becoming constants was recorded on
# ----------------------------------------------------------------------
#: FarmConfig's FIELDS rows that became component constants, each list
#: after the row it stood behind.
KNOB_FIELDS = {
    "journal": {"journal_capacity": (int, 65536)},
    "verdict_deadline": {"verdict_retries": (int, 2),
                         "retry_backoff": (NUMBER, 2.0)},
    "pending_policy": {"lifecycle_retry_limit": (int, 2),
                       "lifecycle_retry_backoff": (NUMBER, 30.0)},
    "malice_policy": {"quarantine_max_frames": (int, 1024)},
}
#: And their _LEAST rows, likewise.
KNOB_LEAST = {
    "telemetry_snapshot_interval": {"journal_capacity": 0},
    "verdict_deadline": {"verdict_retries": 0, "retry_backoff": 1,
                         "lifecycle_retry_limit": 0,
                         "lifecycle_retry_backoff": 0,
                         "quarantine_max_frames": 0},
}


def _after(table: dict, rows_after: dict) -> dict:
    out = {}
    for name, row in table.items():
        out[name] = row
        out.update(rows_after.get(name, {}))
    return out


@pytest.fixture
def old_knobs(monkeypatch, old_close):
    """Put FarmConfig's six retired rows back in place (the rows the
    fuzz loop mutates, and the least values it is refused by)."""
    fields = FarmConfig.FIELDS
    kept = dict(fields)
    fields.clear()   # in place: the fuzz loop's Table holds this dict
    fields.update(_after(kept, KNOB_FIELDS))
    monkeypatch.setattr(FarmConfig, "_LEAST",
                        _after(FarmConfig._LEAST, KNOB_LEAST))
    yield
    fields.clear()
    fields.update(kept)


#: The one pin the six fields becoming constants moved, as recorded
#: before: the quick fuzz loop over FarmConfig documents (its rows).
OLD_KNOBS_PINS = {
    "fuzz/farm_config": {
        "digest":
            "b089acd29c2d8462b7b66adeb9ddeac27eb60b9f97e5decc0ee42003e72bd64d",
        "iterations": 500, "ok": 107, "parse_errors": 393},
}


def test_pins_reconstruct_with_the_old_knobs(old_knobs):
    """With the six rows put back, the fuzz loop's pin reads as it
    was."""
    assert _farm_config_fuzz() == OLD_KNOBS_PINS["fuzz/farm_config"]


def _register_aging_counters(telemetry, name, read) -> None:
    for reason in ("idle", "hard"):
        telemetry.counter("flowtable.evictions.timeout",
                          "Entries aged out").register(
            read, subfarm=name, reason=reason)


@pytest.fixture
def old_aging(monkeypatch, old_knobs):
    """Put back what flow-table entry aging left in the pins: the
    ``flowtable.evictions.timeout`` counters by reason (no pinned run
    set a timeout, so each read 0), FarmConfig's two timeout fields
    (rows the fuzz loop mutates) and the fault-matrix shard's inline
    digest, which folded those counters."""
    init = FlowTable.__init__

    def counted(self, name, telemetry=None):
        init(self, name, telemetry)
        if telemetry is not None and telemetry.enabled:
            _register_aging_counters(telemetry, name, lambda: 0)

    monkeypatch.setattr(FlowTable, "__init__", counted)
    fields = FarmConfig.FIELDS
    kept = dict(fields)
    fields.clear()   # in place: the fuzz loop's Table holds this dict
    fields.update(_before_batch_window(kept, AGING_FIELDS))
    monkeypatch.setattr(FarmConfig, "_LEAST", _before_batch_window(
        FarmConfig._LEAST, dict.fromkeys(AGING_FIELDS, 0)))
    monkeypatch.setattr(golden, "fault_farm_shard", _inline_fault_shard)
    yield
    fields.clear()
    fields.update(kept)


def _fig7_text() -> str:
    """``benchmarks/output/fig7_report.txt`` with the flow-table
    section's timeout columns, which read 0, put back."""
    row = ARTEFACTS["fig7-report"]
    return re.sub(r"(?m)^(  evictions +\d+   retired +\d+)$",
                  lambda match: match[1] + f"   idle timeouts {0:>6}"
                                           f"   hard timeouts {0:>6}",
                  row.render(row.run(**row.defaults())))


def _farm_config_fuzz() -> dict:
    """``FUZZ_quick.json``'s ``farm_config`` section."""
    run = fuzz_target(SOLO_TARGETS["farm_config"], QUICK_SEED,
                      QUICK_SOLO_ITERATIONS)
    return {key: run[key]
            for key in ("iterations", "ok", "parse_errors", "digest")}


#: Every pin the deletion of entry aging and the fault shard's move to
#: ``farm_digest`` moved, as recorded before them: the fault-matrix
#: cells, the obs-parity corpus (the two counters), the Figure 7 report
#: (its flow-table line) and the quick fuzz loop over FarmConfig
#: documents (its rows).
OLD_AGING_PINS = {
    "fault/baseline/drop":
        "a8bb3f6ec502c5560d32a3f226fee83516ab33106ffb51c241360dfef1b7bfa0",
    "fault/baseline/forward":
        "fbbdbfbad7121a7caafa4afcf1c0d828b53b275e6ff2d21b5dce6c75930af8d2",
    "fault/cs_crash/drop":
        "71fe8a59f89c361ba816bcceaefecee44ddb4be292fb1eff558fa12efe090fae",
    "fault/cs_crash/forward":
        "673246508f6a675ad3a5533514bf2993e8b20112766bc67ef43b11837cf16852",
    "fault/cs_crash_restore/drop":
        "34a524d000cf08179a717d310090ec6dbb3e8f80a34fc42505ddc3f7c7ded91f",
    "fault/cs_crash_restore/forward":
        "c189b3d5267149e597b5da15a0806c5fe9dbc2e9892d072764557a7dde6dffa9",
    "fault/cs_hang/drop":
        "b12bd83783ec3eaa1206364199db074d9355086607c6c52afb5fc3196f04ba35",
    "fault/cs_hang/forward":
        "9a2995815fd6db7223e861fb8cb7f68cdfa30fc857ef11b02905477c65116e85",
    "fault/revert_fail/drop":
        "b15745fd6bbd8b089b99e66c1860ac116d76fcdfa1b14a275280e2b7d8ab76fd",
    "fault/revert_fail/forward":
        "fa0394785d7f6ff4eb3b6527350ab1f956095a4c5bf9656941932290bcb3b5e0",
    "fault/shim_degraded/drop":
        "bb4817aa37aaf45e7905ce8da3ed86613213c77d723a8e784224de7057870f73",
    "fault/shim_degraded/forward":
        "942a082844fc4b647ff0baa4f71c9b9f4598bd1b57ea1c77ddf29b22b7742d28",
    "fault/shim_partition/drop":
        "1e5d6a9ba7270293b68db1977f4e654c004571e109254649d34207b287439763",
    "fault/shim_partition/forward":
        "c6382eb28b46898088163ca5b1ef828cb69e5d68365c77cc40f68a8b04dddc84",
    "obs": "6bd0a3c0e2728465ccc2caf083fb9926d8983a9f3036e8a85048beebd4ce6634",
    "fig7_report":
        "17589c9ff4b1792b8b8f5727d3872d9d72c2e12d0452de08cb77dc129c959e01",
    "fuzz/farm_config": {
        "digest":
            "db2cb9564b10fd4bea88e772ed89b105da294b8add6d66295baec1d394368fdc",
        "iterations": 500, "ok": 104, "parse_errors": 396},
}


def _old_aging_producers() -> dict:
    return {
        **FARM_PINS,
        "obs": _obs_corpus_digest,
        "fig7_report": lambda: hashlib.sha256(
            _fig7_text().encode("utf-8")).hexdigest(),
        "fuzz/farm_config": _farm_config_fuzz,
    }


@pytest.mark.parametrize("name", sorted(OLD_AGING_PINS))
def test_pins_reconstruct_with_entry_aging(old_aging, name):
    """Deleting entry aging and digesting the fault shard through
    ``farm_digest`` moved what they move and nothing else: with the
    counters, the config rows, the report columns and the inline
    digest put back, every pin they moved reads as it was."""
    assert _old_aging_producers()[name]() == OLD_AGING_PINS[name]


# ----------------------------------------------------------------------
# The path every pin up to the server leaving it was recorded on
# ----------------------------------------------------------------------
#: The ``drop-tcp`` kind: a dropped TCP tuple's rule swallowed all but
#: a SYN, which might be a new incarnation of the flow.
DROP_TCP = max(SPECS) + 1
DROP_TCP_SPEC = KindSpec("drop-tcp", PROTO_TCP, SYN, None, True, None,
                         False, CLOSE_NONE)


def _raw_service_frame_inner(self, frame) -> None:
    """``SubfarmRouter._service_frame_inner`` as it was: a server's
    frame on no flow went where its address led, like any service's."""
    packet = frame.payload
    if not isinstance(packet, IPv4Packet) or self._lookup(packet):
        return
    if packet.proto == PROTO_TCP and packet.src.value in self._cs_links:
        record = self._by_nonce.get(packet.payload.sport)
        if record is not None:
            coupling.open_nonce_leg(self, record, packet)
            return
    vlan = self.bridge.vlan_for_ip(packet.dst)
    if vlan is not None:
        self.egress.vlan_egress(vlan).send(packet)
        return
    if packet.dst.value in self.service_ips:
        self.egress.service_egress(packet.dst).send(packet)
        return
    admission.service_outbound(self, packet)


def _every_flow_gets_the_server(self, ip) -> None:
    """``SubfarmRouter.add_containment_server`` as it was: the new
    server's row on every held flow's mux port, decided or not."""
    ip = IPv4Address(ip)
    if ip.value not in self._cs_links:
        self._link_cs(ip)
        self._cs_list.append(ip)
        for record in self._by_mux.values():
            self.flowtable.bind(coupling.cs_row(self, record, ip))


@pytest.fixture
def old_path(monkeypatch, old_aging):
    """Put back the gateway that held a flow past its end on the wire:
    an endpoint verdict re-bound every server's mux-port row (what a
    server still sent reached the client, translated, but for a reset,
    counted and swallowed) and a new server got a row on every held
    flow; a TCP DROP installed a ``drop-tcp`` rule and waited for the
    idle sweep; a server's frame on no flow went out raw; and the router
    scripts kept a server quiet on a flow whose handoff had completed."""
    def rebind(router, record):
        for cs_ip in router._cs_list:
            router.flowtable.bind(coupling.cs_row(router, record, cs_ip))

    from_cs = coupling.from_cs

    def from_a_server(router, row, packet):
        record, decision = row.record, row.record.decision
        if (packet.proto == PROTO_TCP and packet.payload.flags & RST
                and record.phase is not FlowPhase.SHIM
                and not (decision is not None
                         and decision.verdict.is_content_control)):
            record.s2c_packets += 1
            return
        from_cs(router, row, packet)

    monkeypatch.setattr(coupling, "uncouple", rebind)
    monkeypatch.setattr(coupling, "from_cs", from_a_server)
    monkeypatch.setattr(SubfarmRouter, "add_containment_server",
                        _every_flow_gets_the_server)
    monkeypatch.setattr(SubfarmRouter, "_service_frame_inner",
                        _raw_service_frame_inner)
    monkeypatch.setitem(SPECS, DROP_TCP, DROP_TCP_SPEC)
    compile_dropped, apply_decision = (handoff.compile_dropped,
                                       handoff.apply_decision)

    def dropped(router, record):
        rows = compile_dropped(router, record)
        if record.orig.proto == PROTO_TCP:
            rows[0].spec = DROP_TCP_SPEC
        return rows

    def held(router, record, decision, leftover=b""):
        verdict = decision.verdict
        if (record.orig.proto != PROTO_TCP or verdict.is_content_control
                or verdict.endpoint_op != Verdict.DROP):
            return apply_decision(router, record, decision, leftover)
        with monkeypatch.context() as patch:
            patch.setattr(housekeeping, "release",
                          lambda router, record: handoff.install(router,
                                                                 record))
            apply_decision(router, record, decision, leftover)

    monkeypatch.setattr(handoff, "compile_dropped", dropped)
    monkeypatch.setattr(handoff, "apply_decision", held)
    server = RouterScript.server

    def steered(self, flow, kind, size=0):
        record = flow.record
        if (record.dst_isn is not None and record.cs_isn is not None
                and not flow.udp):
            return
        server(self, flow, kind, size)

    monkeypatch.setattr(RouterScript, "server", steered)


def _script_digests(scripts: int, old_table: bool = False) -> list:
    """The router scripts' digests; on the old table less
    ``flowtable.stats()``'s ``retired``, which it did not count."""
    digests = []
    for seed in range(scripts):
        state = run_script(seed)
        if old_table:
            assert state["table"].pop("retired") == 0
        digests.append(wire_digest(state))
    return digests


def _scripts_digest(old_table: bool = False) -> str:
    """One digest over every router script's, in seed order."""
    digests = _script_digests(len(script_digests()), old_table)
    return hashlib.sha256(json.dumps(digests).encode()).hexdigest()


def _fuzz_router_digest(old_table: bool = False) -> str:
    """``FUZZ_quick.json``'s ``router.digest``, as
    :func:`repro.fuzz.runner.fuzz_router` folds it."""
    rollup = hashlib.sha256()
    for digest in _script_digests(QUICK_ROUTER_SCRIPTS, old_table):
        rollup.update(digest.encode())
    return rollup.hexdigest()


def _artefact(name: str) -> str:
    """sha256 of a rendered ``benchmarks/output`` artefact."""
    row = ARTEFACTS[name]
    text = row.render(row.run(**row.defaults()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Every pin the server leaving the path, a TCP DROP ending at its
#: verdict and the dropped server frame moved, as recorded before them:
#: the seed farm and the campaign (their streams' closes), every
#: fault-matrix cell, the obs-parity corpus, the router scripts and
#: their quick fuzz slice (a server speaking after a handoff, DROPs,
#: the generator's steering gone), the scripted seed farm of
#: ``router_wire.json`` and the Figure 7.2 gateway's packets relayed.
OLD_PATH_PINS = {
    "farm": "2f3a707220e928a4ea895b06e92cf2e3552359125f2de7881c723ab474e58bf9",
    "campaign":
        "8b863e838a63854b960efda5956213d1d2c0ad50a309a2a82c61dce01663c451",
    "fault/baseline/drop":
        "2cb2c581edef05e5540c164265ec79dc9cafb40e73cdcaaa7d18a592734c6835",
    "fault/baseline/forward":
        "28151875426da6ae13569c37ab11fbdf56255fc8abd820ef56e0b821acd08201",
    "fault/cs_crash/drop":
        "bbfd63175ae0659d37f3108a5025173621323c37d9b2bdd1ee902687135d685c",
    "fault/cs_crash/forward":
        "bea0f74d09ccbb0f28db1868abc2c50c3d19fad4a0107e2696526ac80e4c39a6",
    "fault/cs_crash_restore/drop":
        "6c6f734ef102f4853a591b6290799a0687cab8c4ad688bb5928d7550b4f91602",
    "fault/cs_crash_restore/forward":
        "5ea9cfea9f69cc11e49de55829aabc7f74dfb74145ce2710a4f294779e1b7aeb",
    "fault/cs_hang/drop":
        "ef61451b74db3d65d2190d7bd376b9da307afdbbb172770c411442d54d5dda22",
    "fault/cs_hang/forward":
        "0bc1da7ea89daa3bb0c5517a36c004fc3906de2b839206a3470bd239449ec186",
    "fault/revert_fail/drop":
        "bbd9354d6043cfdeb8e451db53522c52710cf9d3c6e91d4f6cf67e3688bb2c26",
    "fault/revert_fail/forward":
        "4ea7ecf9146028769208600b089e7389b9eb27e6a4043a60fe5b9896bf1875ff",
    "fault/shim_degraded/drop":
        "a058a5bf50297b326816668bf5ecac22c52669f2094c59930480f28d0c235549",
    "fault/shim_degraded/forward":
        "b47cd1c2319b3bc215fbe7ecffd6aa70b44788f2c15162dc7da1c1780ca9a97d",
    "fault/shim_partition/drop":
        "615988016df559f40e280a8d89fa25181f7bab1e4b6473452f284703a27b7744",
    "fault/shim_partition/forward":
        "55a911dfeee2f93859a2c3323a989d982532a37b40532f91fc730e2bfe8d1850",
    "obs": "29f4bf00f7c6bc1581f384f31b05f2392b782dd84ac544dc47baae6f5cd26119",
    "router_scripts":
        "d13a9f395643a749fc7bcec50273a062a032b2bea320406c472636a9c06ae733",
    "fuzz/router":
        "47eb5c133bbc18fa2e8566662a57b1037806a2c5a016ec857032c9f882cbbdda",
    "router_wire/farm-seed-23":
        "a51adcca7d950a96fc1fc454117df3ef728e8211283fc3bf3889f293bdb3865c",
    "scalability":
        "39c7c4ce323b4e1661a616003834a67fbaa29bbaca25a86f37c5136d2fc458c0",
}


def _old_path_producers() -> dict:
    return {
        **FARM_PINS,
        "obs": _obs_corpus_digest,
        "router_scripts": _scripts_digest,
        "fuzz/router": _fuzz_router_digest,
        "router_wire/farm-seed-23": lambda: wire_digest(
            test_fastpath.GOLDEN["farm-seed-23"]()),
        "scalability": lambda: _artefact("scalability"),
    }


@pytest.mark.parametrize("name", sorted(OLD_PATH_PINS))
def test_pins_reconstruct_on_the_old_path(old_path, name):
    """The server leaving the path at the verdict, a TCP DROP released
    at it and a server's frame on no flow dropped moved what they move
    and nothing else: with all three put back, every pin they moved
    reads as it was."""
    assert _old_path_producers()[name]() == OLD_PATH_PINS[name]


# ----------------------------------------------------------------------
# The table every pin up to retirement was recorded on
# ----------------------------------------------------------------------
def _sync(table) -> None:
    table._synced = (table.occupancy, table.hits, table.misses,
                     table.installs)


@pytest.fixture
def old_table(monkeypatch, old_path):
    """Put back the flow table before retirement: a finished flow keeps
    its keys, rules and slot until the idle sweep (a handoff its
    destination resets is closed in place), and the ``flowtable.*``
    instruments read the stats as of the table's last install,
    demotion or eviction with rules.  A handed-off flow's rows track no
    close, so the controller aborts a client's reset and swallows it."""
    def unretired(router, record):
        if record.phase is FlowPhase.HANDOFF:
            record.phase = FlowPhase.CLOSED

    monkeypatch.setattr(housekeeping, "retire", unretired)
    for kind in (ACT_TCP_C2D, ACT_TCP_D2C):
        monkeypatch.setitem(SPECS, kind, SPECS[kind]._replace(
            close=CLOSE_NONE))

    init, stats = FlowTable.__init__, FlowTable.stats

    def synced_init(self, name, telemetry=None):
        init(self, name)
        _sync(self)
        if telemetry is not None and telemetry.enabled:
            telemetry.gauge(
                "flowtable.occupancy", "Installed flow-table entries"
            ).register(lambda: float(self._synced[0]), subfarm=name)
            for index, (metric, help) in enumerate((
                ("flowtable.hits", "Flow-table probe hits"),
                ("flowtable.misses",
                 "Flow-table misses (slow-path packets)"),
                ("flowtable.installs", "Entries installed"),
            ), 1):
                telemetry.counter(metric, help).register(
                    lambda index=index: self._synced[index],
                    subfarm=name)
            _register_aging_counters(telemetry, name, lambda: 0)

    def synced_stats(self):
        _sync(self)
        return stats(self)

    monkeypatch.setattr(FlowTable, "__init__", synced_init)
    monkeypatch.setattr(FlowTable, "stats", synced_stats)
    install, uninstall = handoff.install, handoff.uninstall
    release = housekeeping.release

    def synced_install(router, record):
        installs = router.flowtable.installs
        install(router, record)
        if router.flowtable.installs != installs:
            _sync(router.flowtable)

    def synced_uninstall(router, record):
        installed = router.flowtable.rules(record)
        uninstall(router, record)
        if installed:
            _sync(router.flowtable)

    def synced_release(router, record):
        rules = release(router, record)
        if rules:
            _sync(router.flowtable)
        return rules

    monkeypatch.setattr(handoff, "install", synced_install)
    monkeypatch.setattr(handoff, "uninstall", synced_uninstall)
    monkeypatch.setattr(housekeeping, "release", synced_release)


def _fig7_report() -> str:
    """:func:`_fig7_text` less the flow-table section's ``retired``
    column, which the old table did not have."""
    text = _fig7_text().replace(f"   retired {0:>6}", "")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Every pin retirement and the live ``flowtable.*`` reads moved, as
#: recorded before them: the fault-matrix cells (their snapshots carry
#: ``flowtable.*``), the obs-parity corpus, the router scripts (their
#: state folds ``flowtable.stats()``, and a reset handed-off flow is
#: relayed and retired), the quick fuzz slice of them, the Figure 7
#: report (its flow-table section) and the scripted client reset of
#: ``router_wire.json``.
OLD_TABLE_PINS = {
    "fault/baseline/drop":
        "98938331b0fa7d3b700733bb712e84ffc7f7d5d80e753c3f9257805035208a47",
    "fault/baseline/forward":
        "609d445fe50fc32a296959ee57ac2a390c39523a01ac2f3d3c57a8681e4b9143",
    "fault/cs_crash/drop":
        "4c64cb7f36da9d99e02772bcc410eba10ca111916361902c250ada1d08aad92d",
    "fault/cs_crash/forward":
        "4ea487aab5486ddff2896e02ad64a05de738b2d4e9c12e0024c047b421a37442",
    "fault/cs_crash_restore/drop":
        "8e9f3be1fa0c26e1a452769637f7d9cedeed4120f8943df8a235038d9dff5c0d",
    "fault/cs_crash_restore/forward":
        "75d919fd26f51435754b34a3c6d4ae73807dc78aef6ee1b2d3692de602fd2d06",
    "fault/cs_hang/drop":
        "5be22bb6902e5a53fe3b4698323de1310a978b62c86317187bf9354e3eba7b38",
    "fault/cs_hang/forward":
        "52be00ec57ca75f7ae3aed41cd7216dfb56ea5bb0b3a286274685efbb3c45870",
    "fault/revert_fail/drop":
        "266103032096ab79d3d330d74b228b2cee9d6132d7f98d40e834927d650475af",
    "fault/revert_fail/forward":
        "c841a8c3a232a6d6d81da3803ef9b4d537fa136c58839b8f38ff99b685669e76",
    "fault/shim_degraded/drop":
        "d4cf3c2d8731441b2178b5b87caa78398e8eac1aea1736418e91b635afa71c5e",
    "fault/shim_degraded/forward":
        "95572c922dba6237508164f18fbef762508b8d718c6b9b1c9d24cb13ea5740fd",
    "obs": "3c6b0ce011faeff976f87479a56c53df28e8af56e26514ee2baf3ce0f8e73a8c",
    "router_scripts":
        "37228179b3ddaabe32e416a891730311f6d8c153895a432bbb040d9c036900c7",
    "fuzz/router":
        "39ca8fe4d9eb9985e551f8d7792eedef4db3138a2ddaa6c37302b0bc364de92b",
    "fig7_report":
        "aa78bb1f677f08731d485410e8e2ec69fc8acc5c65dc3eff35fc082a2311627c",
    "router_wire/tcp-fin-and-rst":
        "d13bd05508a210f8bc8730262620ac8830a8cbd50b287ab0e11dd3fdaedefe0a",
}


def _old_table_producers() -> dict:
    return {
        **FARM_PINS,
        "obs": _obs_corpus_digest,
        "router_scripts": lambda: _scripts_digest(old_table=True),
        "fuzz/router": lambda: _fuzz_router_digest(old_table=True),
        "fig7_report": _fig7_report,
        "router_wire/tcp-fin-and-rst": lambda: wire_digest(
            test_fastpath.GOLDEN["tcp-fin-and-rst"]()),
    }


@pytest.mark.parametrize("name", sorted(OLD_TABLE_PINS))
def test_pins_reconstruct_on_the_old_table(old_table, name):
    """Retirement and the live ``flowtable.*`` reads moved what they
    move and nothing else: with the old table put back, every pin they
    moved reads as it was."""
    assert _old_table_producers()[name]() == OLD_TABLE_PINS[name]


# ----------------------------------------------------------------------
# The wire every pin up to the pure-ACK and d2c re-pins was recorded on
# ----------------------------------------------------------------------
def _acking_process_payload(self, segment):
    """``_process_payload`` as it was: a pure ACK after every in-order
    delivery, whatever ``on_data`` had sent."""
    payload = segment.payload
    seg_seq = segment.seq
    rcv_nxt = self.rcv_nxt
    if seg_seq != rcv_nxt:
        if not seq_lt(seg_seq, rcv_nxt):
            self._reassembly[seg_seq] = payload
            self._emit(ACK, self.snd_nxt, rcv_nxt)
            return
        overlap = seq_sub(rcv_nxt, seg_seq)
        if overlap >= len(payload):
            self._emit(ACK, self.snd_nxt, rcv_nxt)
            return
        payload = payload[overlap:]
    self._deliver(payload)
    reassembly = self._reassembly
    while reassembly and self.rcv_nxt in reassembly:
        self._deliver(reassembly.pop(self.rcv_nxt))
    self._emit(ACK, self.snd_nxt, self.rcv_nxt)


def _acking_handle_fin(self, segment):
    """``_handle_fin`` as it was: the FIN's pure ACK before
    ``on_remote_close`` could answer it."""
    fin_seq = seq_add(segment.seq, len(segment.payload))
    if fin_seq != self.rcv_nxt:
        return
    self.rcv_nxt = seq_add(self.rcv_nxt, 1)
    self._emit(ACK, self.snd_nxt, self.rcv_nxt)
    state = self.state
    if state is TcpState.ESTABLISHED or state is TcpState.SYN_RCVD:
        self.state = TcpState.CLOSE_WAIT
        if self.on_remote_close:
            self.on_remote_close(self)
    elif state is TcpState.FIN_WAIT_1:
        self.state = TcpState.CLOSING
    elif state is TcpState.FIN_WAIT_2:
        self._enter_time_wait()


@pytest.fixture
def old_wire(monkeypatch, old_table):
    """Put back the endpoint that acked every delivery and every FIN
    with a segment of its own, and the ``tcp-d2c`` row that subtracted
    the request shim from a forwarded destination's acks — on the
    table those pins were recorded on."""
    monkeypatch.setattr(TcpConnection, "_process_payload",
                        _acking_process_payload)
    monkeypatch.setattr(TcpConnection, "_handle_fin", _acking_handle_fin)
    compile_endpoint = handoff.compile_endpoint

    def shim_in_the_ack(router, record):
        rows = compile_endpoint(router, record)
        if record.orig.proto == PROTO_TCP:
            rows[1].ack_delta = (-record.c2s_inj) & 0xFFFFFFFF
        return rows

    monkeypatch.setattr(handoff, "compile_endpoint", shim_in_the_ack)


def _obs_corpus_digest() -> str:
    """What ``tests.golden.regen`` pins of ``obs_parity.json``."""
    runs = {name: run() for name, run in test_obs_parity.RUNS.items()}
    return hashlib.sha256(json.dumps({"runs": runs}, sort_keys=True)
                          .encode("utf-8")).hexdigest()


#: Every pin that runs in-process, as recorded before the endpoint
#: stopped sending a pure ACK behind a segment that had carried it and
#: the ``tcp-d2c`` row stopped taking the request shim out of the ack:
#: ``tests/golden/farm_digests.json``, the obs-parity journal digests
#: and the obs-parity corpus as a whole.
OLD_WIRE_PINS = {
    "farm": "87c998a934a76bf8370b333ef453518b5e64bb0551e501d8965e349a6bdaa676",
    "farm_journal":
        "021291dcd7ae309fef0d4f3b6ef9f2b98dc56604e5d28dea12d1eaed6c188ce8",
    "campaign":
        "7f5c5d59e60de14154ba6412cd1c029273afac53af1ba95615d71921468a48d3",
    "fault/baseline/drop":
        "919914412edaa0a42ab03ae20693fef8b42e80dba9de1996b069e962b913445a",
    "fault/baseline/forward":
        "9c2229748616231e77da686b9c3c3207ef15fe330593a8dd5d7c4f2c5f409fee",
    "fault/cs_crash/drop":
        "fa6ac5db2f8a487873949b348d4e6cc9598a61b9b8afa495fe64682f0fc03125",
    "fault/cs_crash/forward":
        "b6470a5f9a83953be3648c77e9ab48cfe2d070d120a9d4832549b464e61b17fe",
    "fault/cs_crash_restore/drop":
        "272a039e29019c7bac7e7918044c8445284da3b396081470315ee734c870862c",
    "fault/cs_crash_restore/forward":
        "ea8b8e4a784ddddbad1bd189c6abc34ebf4fd494148307a02e74b1d7c399eab6",
    "fault/cs_hang/drop":
        "14327f9518fd2d0ce2347fe161331930172145bf17fcfeaaf6817be4a0af6e26",
    "fault/cs_hang/forward":
        "25e9dcf6b80b21e8f3fe17ea7bf298f3ebe85039041248736b9bcabaecbdb340",
    "fault/revert_fail/drop":
        "47d31d672ff5e4a8b3c12ab2d44ebce0da71895562f03f5f60cacad3ec344e54",
    "fault/revert_fail/forward":
        "5113719c8906b7d27214c2526b00d0f1de41a4f5a2be1aa5304ffad1e17da5da",
    "fault/shim_degraded/drop":
        "d94c8a0c2548e442376646a941bf36ea83d240f638f21e2a0abd4ad88e6ebd06",
    "fault/shim_degraded/forward":
        "42a85099b0d34b686aa19e7d167cf24f5bf0ce858324e5e8215385b5c3efef60",
    "fault/shim_partition/drop":
        "615988016df559f40e280a8d89fa25181f7bab1e4b6473452f284703a27b7744",
    "fault/shim_partition/forward":
        "55a911dfeee2f93859a2c3323a989d982532a37b40532f91fc730e2bfe8d1850",
    "obs/seed11/journal_digest":
        "5bc17cb8cb30e441ccd6a0e5aec57610f8cad0c61a9c534119af521184a955c7",
    "obs/seed12-small-journal/journal_digest":
        "c225ec2d95beb600577b08cd0985ca10adf0da3939e607b7b9ec41accf4a095a",
    "obs/seed13-every-family/journal_digest":
        "4f5a3b183298b93199c94fbb6b1d41ef1082386069530a4bdb6ae7d58bd3a9ad",
    "obs": "2a018413101a4fabdb369b9bf208a1cb060a76805af2b5a7ab558935899f11d2",
}
OLD_WIRE_PRODUCERS = {
    **FARM_PINS,
    **{f"obs/{name}/journal_digest":
       (lambda run=run: run()["journal_digest"])
       for name, run in test_obs_parity.RUNS.items()},
    "obs": _obs_corpus_digest,
}


@pytest.mark.parametrize("name", sorted(OLD_WIRE_PINS))
def test_pins_reconstruct_on_the_old_wire(old_wire, name):
    """The pure-ACK and d2c re-pins moved what those two move and
    nothing else: with the old endpoint and the old row put back,
    every pin reads as it was."""
    assert OLD_WIRE_PRODUCERS[name]() == OLD_WIRE_PINS[name]


@pytest.mark.parametrize("params, tracer, fold, old_pin", V1_PINS,
                         ids=["seed-farm", "golden-farm-seed-23"])
def test_v1_digest_reconstructs(monkeypatch, old_wire, params, tracer,
                                fold, old_pin):
    """Schema /1 -> /2 moved the snapshot's own keys and not one other
    byte of the snapshot or the wire: today's snapshot plus the
    constants the old schema emitted, on the wire those pins were
    recorded on, hashes to the old pin."""
    real = Farm.telemetry_snapshot

    def v1_snapshot(farm, include_traces=True):
        snap = real(farm)
        assert sorted(snap) == ["counters", "enabled", "gauges",
                                "histograms", "schema", "time"]
        assert snap["schema"] == "gq.telemetry/2"
        snap.update({
            "schema": "gq.telemetry/1",
            "traces": {},
            "hub": {"published": 0, "retained": 0, "evicted": 0},
            "tracer": tracer,
        })
        return snap

    monkeypatch.setattr(Farm, "telemetry_snapshot", v1_snapshot)
    assert fold(run_farm(*params)) == old_pin


# ----------------------------------------------------------------------
# The surface whose service lookup bound every name it was asked for
# ----------------------------------------------------------------------
@pytest.fixture
def old_surface(monkeypatch):
    """Publish surfaces through the inserting lookup again: the first
    reflect to a missing service added it, so every later atom of the
    policy read as if the service were bound."""
    monkeypatch.setattr(policy_module, "_Unbound", lambda services: (
        defaultdict(lambda: (UNBOUND, 0), services)))


#: The certificate pins the lookup fix moved, as recorded before: each
#: sink-less library policy that reflects, with and without the
#: allow-spec.
OLD_SURFACE_PINS = {
    "policy/DgaBotPolicy/bare/allow":
        "320c84721e6576cfa5f230479b69bf37736eef07f9f20f2b0d40fc234801cbfe",
    "policy/DgaBotPolicy/bare/open":
        "83083c3d429316a2c3ac34729badfc5163f2ae4be77ff332e7886b1f6116c825",
    "policy/Grum/bare/allow":
        "2c21e296814706d5d92a4a0eca77aaa2f197c50e702314884e6734cc015d80f5",
    "policy/Grum/bare/open":
        "1e0ff3c23ce4bc30b40de56dc1825078252f34b86f981a5197bc4f274098b4b6",
    "policy/IrcBotPolicy/bare/allow":
        "16dfc354089d72ce4b3d1d683f7ca33e9ad97bab2eca92faa5081041d09bf875",
    "policy/IrcBotPolicy/bare/open":
        "6ccd4ad0b280fc8a6882abc9597bdf0c481987d6568dd3d5c6c9ac9ac4605878",
    "policy/MegaDContainment/bare/allow":
        "34ec535e77b606a7413259391e2df5539b1e3957f7fd9336ad99cc1c9606c2c9",
    "policy/MegaDContainment/bare/open":
        "e06d73a9649bfa50902904ef3949337d643a2c3a486264fcceaa2168613f24c3",
    "policy/Rustock/bare/allow":
        "dc92b188222479c36392fbc9c6e2d353fe05b3a168b5234f9bc89033487acd72",
    "policy/Rustock/bare/open":
        "91c564292a0162de2d8932cc5d087dde7487be10bb0fbfbccfd7bfafe4a225ca",
    "policy/SpambotPolicy/bare/allow":
        "f791bcc51df8818e29e138b074e6f69277b9ef724bff6ff6c8dfcbe32ad0cc11",
    "policy/SpambotPolicy/bare/open":
        "6574885acc37d0ddb1c824ec896fd3d82ec5df1515b06914148c6d3c36fa6581",
    "policy/Waledac/bare/allow":
        "f2c0ff629f86e9bf97b4b8766ede44563f0c2c4ed637ec248693cf649c6a51bf",
    "policy/Waledac/bare/open":
        "d29902c3565496948e2170982f93eea4512639fbea74c75a1a806864ec961e3a",
}


def test_pins_reconstruct_with_the_inserting_lookup(old_surface):
    """The lookup fix moved these 14 certificates and no other: with
    the inserting lookup put back, each reads as it was, and every
    other certificate holds today's pin."""
    pins = test_certificate_corpus.pinned()
    for label, (build, allow) in test_certificate_corpus.corpus().items():
        digest = certify_farm(build(), label=label, allow=allow)["digest"]
        assert digest == OLD_SURFACE_PINS.get(label, pins[label]), label


# ----------------------------------------------------------------------
# The close every pin up to the two-way REWRITE close was recorded on
# ----------------------------------------------------------------------
def _handle_fin_when_open(self, segment):
    """``_handle_fin`` as it was: ``on_remote_close`` only for a FIN
    accepted in ESTABLISHED or SYN_RCVD; one accepted in FIN_WAIT moved
    the state on and told no one."""
    fin_seq = seq_add(segment.seq, len(segment.payload))
    if fin_seq != self.rcv_nxt:
        return
    self.rcv_nxt = seq_add(self.rcv_nxt, 1)
    state = self.state
    if state is TcpState.ESTABLISHED or state is TcpState.SYN_RCVD:
        self.state = TcpState.CLOSE_WAIT
        if self.on_remote_close:
            self.on_remote_close(self)
        if self.ack_sent != self.rcv_nxt:
            self._emit(ACK, self.snd_nxt, self.rcv_nxt)
        return
    self._emit(ACK, self.snd_nxt, self.rcv_nxt)
    if state is TcpState.FIN_WAIT_1:
        self.state = TcpState.CLOSING
    elif state is TcpState.FIN_WAIT_2:
        self._enter_time_wait()


@pytest.fixture
def old_close(monkeypatch, old_sampling):
    """Put back the end-of-stream event that only an open connection
    raised: the server's FIN on a REWRITE flow's onward leg, which the
    proxy had closed first, never reached the rewriter, so the inmate
    side stayed in CLOSE_WAIT."""
    monkeypatch.setattr(TcpConnection, "_handle_fin", _handle_fin_when_open)


#: Every pin the two-way REWRITE close moved, as recorded before it:
#: the obs-parity corpus (its third run proxies), the Figure 7 report
#: (one more ``tcp-cs2c`` hit per REWRITE flow: the server's FIN to the
#: inmate) and the handoff ablation (one more server packet per fetch).
OLD_CLOSE_PINS = {
    "obs": "b86f929f98b240703f0558f08547e02588c78c713907ba0e6d5ec9d1d0945e4e",
    "fig7_report":
        "96b2d632ce20a5e9f710ba72d79361e939d19f2723d7e0d0b5f9bad9bd890fb0",
    "ablation_handoff":
        "38eb539b6690a098b0895f97e21e556f0821abb61c8527a6135eef43e843ad13",
}
OLD_CLOSE_PRODUCERS = {
    "obs": _obs_corpus_digest,
    "fig7_report": lambda: _artefact("fig7-report"),
    "ablation_handoff": lambda: _artefact("ablation-handoff"),
}


@pytest.mark.parametrize("name", sorted(OLD_CLOSE_PINS))
def test_pins_reconstruct_with_the_one_way_close(old_close, name):
    """The end-of-stream event in every state moved what it moves and
    nothing else: with the old close put back, every pin it moved reads
    as it was."""
    assert OLD_CLOSE_PRODUCERS[name]() == OLD_CLOSE_PINS[name]


# ----------------------------------------------------------------------
# The sampling every pin up to reads-only observation was recorded on
# ----------------------------------------------------------------------
#: FarmConfig's two sampling intervals, each after the row it stood
#: behind, and their least values, after ``safety_window``'s.
SAMPLING_FIELDS = {
    "telemetry": {"telemetry_snapshot_interval": (NUMBER, None)},
    "journal": {"journal_sample_interval": (NUMBER, None)},
}
SAMPLING_LEAST = {"safety_window": {"telemetry_snapshot_interval": 0,
                                    "journal_sample_interval": 0}}
#: Samples a journal ring kept, and events between two depth samples.
RING_CAPACITY, QUEUE_DEPTH_STRIDE = 512, 1024


def _strided_run(self, until=None, max_events=None):
    """``Simulator.run`` as it was: with telemetry on, the depth gauge
    read a sample taken every ``QUEUE_DEPTH_STRIDE`` events and when
    the run stopped."""
    if until is not None and not until >= self._now:
        raise ValueError(f"cannot run until t={until} < now={self._now}")
    processed = 0
    queue = self._queue
    horizon = inf if until is None else until
    budget = inf if max_events is None else max_events
    sample = self.telemetry.enabled
    self._in_flight += 1
    try:
        while queue:
            event = queue[0]
            if event[6]:
                heappop(queue)
                self._dead -= 1
                self.events_discarded += 1
                continue
            time = event[0]
            if time > horizon:
                self._now = until
                break
            if processed >= budget:
                break
            heappop(queue)
            event[5] = None
            self._now = time
            event[2](*event[3])
            processed += 1
            self.events_processed += 1
            if sample and not self.events_processed % QUEUE_DEPTH_STRIDE:
                self.queue_depth_sample = len(queue)
        else:
            if until is not None and until > self._now:
                self._now = until
    finally:
        if sample:
            self.queue_depth_sample = len(queue)
    self._in_flight -= 1
    return self._now


def _attach_sampled_depth(self, telemetry) -> None:
    """``Simulator.attach_telemetry`` as it was: the depth gauge read
    ``queue_depth_sample``, 0.0 until the first sample."""
    self.telemetry = telemetry
    self.queue_depth_sample = 0.0
    fired, discarded = self.events_processed, self.events_discarded
    scheduled = self._left_or_queued()
    telemetry.counter(
        "sim.events.scheduled", "Events pushed onto the queue"
    ).register(lambda: self._left_or_queued() - scheduled)
    telemetry.counter(
        "sim.events.fired", "Callbacks executed"
    ).register(lambda: self.events_processed - fired)
    telemetry.counter(
        "sim.events.cancelled", "Dead events discarded at pop"
    ).register(lambda: self.events_discarded - discarded)
    telemetry.gauge(
        "sim.queue.depth", "Events currently queued (incl. dead)"
    ).register(lambda: self.queue_depth_sample)


def _sample(journal, name: str, value) -> None:
    """One sample into the journal's ring ``name``, oldest dropped."""
    ring = vars(journal).setdefault("rings", {}).setdefault(
        name, {"capacity": RING_CAPACITY, "dropped": 0, "samples": []})
    if len(ring["samples"]) == RING_CAPACITY:
        del ring["samples"][0]
        ring["dropped"] += 1
    ring["samples"].append([round(journal.clock(), 9), float(value)])


def _schedule_journal_samples(farm, interval: float) -> None:
    """The farm's journal sampler: five counters and the journal's own
    count, every ``interval`` virtual seconds."""
    def sample() -> None:
        journal = farm.sim.journal
        _sample(journal, "sim.events", farm.sim.events_processed)
        _sample(journal, "sim.queue.depth", farm.sim.pending)
        _sample(journal, "journal.recorded", journal.recorded)
        for name in sorted(farm.subfarms):
            counters = farm.subfarms[name].router.counters
            _sample(journal, f"router.{name}.flows_created",
                    counters.get("flows_created", 0))
            _sample(journal, f"router.{name}.packets_relayed",
                    counters.get("packets_relayed", 0))
        farm.sim.schedule(interval, sample, label="journal-sample")

    farm.sim.schedule(interval, sample, label="journal-sample")


@pytest.fixture
def old_sampling(monkeypatch, old_handshake):
    """Put back what observation sampled on a schedule: FarmConfig's
    two interval rows (the rows the fuzz loop mutates, and the least
    values it is refused by), the run loop's strided depth sample, the
    journal's sample ticks at the scan runs' 10 s, and the ``rings``
    every journal snapshot carried."""
    fields = FarmConfig.FIELDS
    kept = dict(fields)
    fields.clear()   # in place: the fuzz loop's Table holds this dict
    fields.update(_after(kept, SAMPLING_FIELDS))
    monkeypatch.setattr(FarmConfig, "_LEAST",
                        _after(FarmConfig._LEAST, SAMPLING_LEAST))
    monkeypatch.setattr(Simulator, "run", _strided_run)
    monkeypatch.setattr(Simulator, "attach_telemetry",
                        _attach_sampled_depth)
    init = Farm.__init__

    def sampled_init(farm, config=None):
        init(farm, config)
        interval = farm.config.journal_sample_interval
        if farm.config.journal and interval:
            _schedule_journal_samples(farm, interval)

    monkeypatch.setattr(Farm, "__init__", sampled_init)
    snapshot, null_snapshot = Journal._snapshot, NullJournal.snapshot
    monkeypatch.setattr(Journal, "_snapshot", lambda journal, events: dict(
        snapshot(journal, events), rings={
            name: dict(ring, samples=[list(pair)
                                      for pair in ring["samples"]])
            for name, ring in sorted(vars(journal).get("rings",
                                                       {}).items())}))
    monkeypatch.setattr(NullJournal, "snapshot", lambda journal: dict(
        null_snapshot(journal), rings={}))
    monkeypatch.setitem(test_obs_parity.SCAN_CONFIG,
                        "journal_sample_interval", 10.0)
    yield
    fields.clear()
    fields.update(kept)


#: Every pin observation's reads moved, as recorded before: the
#: obs-parity corpus (its mid-run ``sim.events.*`` without the sample
#: ticks, its mid-run depth read live, its journals without
#: ``rings``), the seed farm's journal digest and the quick fuzz loop's
#: (no ``rings``) and its loop over FarmConfig documents (its rows).
OLD_SAMPLING_PINS = {
    "obs": "82f9deb118b966e5ef0914eb2c4fc837fc1ac4d49258d9b6f0f5c6179c53ec55",
    "farm_journal":
        "021291dcd7ae309fef0d4f3b6ef9f2b98dc56604e5d28dea12d1eaed6c188ce8",
    "fuzz/farm_config": {
        "digest":
            "98083f1ae3b737ee44928a66ee253cb3a5dae90153c243810a0fd9d584b7af43",
        "iterations": 500, "ok": 119, "parse_errors": 381},
    "fuzz/farm/isolate/journal_digest":
        "dd6c83e455cad38789bcdd83ee6504364f62d70f022c04ea7b871b07e456cd1a",
    "fuzz/farm/fail-stop/journal_digest":
        "36cda796aebf054b3a68df442eaaa115b1940f189aaeedc89cf83c9da3a76357",
}
OLD_SAMPLING_PRODUCERS = {
    "obs": _obs_corpus_digest,
    "farm_journal": FARM_PINS["farm_journal"],
    "fuzz/farm_config": _farm_config_fuzz,
    **{f"fuzz/farm/{policy}/journal_digest":
       (lambda policy=policy: fuzz_farm(QUICK_SEED, QUICK_FRAMES,
                                        policy=policy)["journal_digest"])
       for policy in ("isolate", "fail-stop")},
}


@pytest.mark.parametrize("name", sorted(OLD_SAMPLING_PINS))
def test_pins_reconstruct_with_the_old_sampling(old_sampling, name):
    """Reading observation only when it is read moved what it moves and
    nothing else: with the intervals, the stride, the sample ticks and
    the rings put back, every pin it moved reads as it was."""
    assert OLD_SAMPLING_PRODUCERS[name]() == OLD_SAMPLING_PINS[name]


# ----------------------------------------------------------------------
# The segments every pin up to the coalesced answers was recorded on
# ----------------------------------------------------------------------
def _flushing_send(self, data):
    """``send`` as it was: every write in ESTABLISHED or CLOSE_WAIT
    left at once, callback or not."""
    state = self.state
    if (state is not TcpState.ESTABLISHED
            and state is not TcpState.CLOSE_WAIT
            and state is not TcpState.SYN_SENT
            and state is not TcpState.SYN_RCVD
            and (state is not TcpState.CLOSED or self.opened_at is not None)):
        raise RuntimeError(f"cannot send in state {state}")
    if self._fin_pending or self._fin_sent:
        raise RuntimeError("cannot send after close()")
    if type(data) is not bytes:
        data = tcp_module._owned(data)
    if data:
        self._send_buffer.append(data)
    if state is TcpState.ESTABLISHED or state is TcpState.CLOSE_WAIT:
        self._flush()


def _flushing_close(self):
    """``close`` as it was: the FIN left at once."""
    state = self.state
    if state is TcpState.TIME_WAIT or (state is TcpState.CLOSED
                                       and self.opened_at is not None):
        return
    if self._fin_pending or self._fin_sent:
        return
    self._fin_pending = True
    if self.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
        self._flush()


def _flushless_abort(self):
    """``abort`` as it was: nothing could be queued to flush first."""
    if self.state not in (TcpState.CLOSED, TcpState.LISTEN):
        self._emit(flags=RST | ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
    self._enter_closed(notify_reset=False)


def _uncorked_enter_established(self):
    """``_enter_established`` as it was: ``on_established`` ran
    uncorked, then whatever had been queued before the handshake
    left."""
    self.state = TcpState.ESTABLISHED
    self.established_at = self.host.sim.now
    if self.on_established:
        self.on_established(self)
    self._flush()


def _segment_arrived_fin_after_close(self, segment):
    """``segment_arrived`` as it was: a CLOSED connection ignored even
    an RST (none was left in the table), and a FIN was handled whatever
    the callbacks had done to the connection."""
    state = self.state
    if state is TcpState.SYN_SENT:
        self._handle_syn_sent(segment)
        return
    if state is TcpState.CLOSED:
        return
    flags = segment.flags
    if flags & RST:
        self._enter_closed(notify_reset=True)
        return
    if state is TcpState.SYN_RCVD:
        if flags & SYN:
            self._emit(SYN | ACK, self.iss, self.rcv_nxt)
            return
        if flags & ACK and segment.ack == self.snd_nxt:
            self._enter_established()
    if segment.payload:
        self._process_payload(segment)
    if flags & ACK and self.state is not TcpState.ESTABLISHED:
        self._process_ack_side_effects(segment)
    if flags & FIN:
        self._handle_fin(segment)


def _answering_process_payload(self, segment):
    """``_process_payload`` as it was: the data answered on its own,
    ahead of a FIN on the same segment, and ``on_data`` uncorked."""
    payload = segment.payload
    seg_seq = segment.seq
    rcv_nxt = self.rcv_nxt
    if seg_seq != rcv_nxt:
        if not seq_lt(seg_seq, rcv_nxt):
            self._reassembly[seg_seq] = payload
            self._emit(ACK, self.snd_nxt, rcv_nxt)
            return
        overlap = seq_sub(rcv_nxt, seg_seq)
        if overlap >= len(payload):
            self._emit(ACK, self.snd_nxt, rcv_nxt)
            return
        payload = payload[overlap:]
    self._deliver(payload)
    reassembly = self._reassembly
    while reassembly and self.rcv_nxt in reassembly:
        self._deliver(reassembly.pop(self.rcv_nxt))
    if self.ack_sent != self.rcv_nxt:
        self._emit(ACK, self.snd_nxt, self.rcv_nxt)


def _uncorked_handle_fin(self, segment):
    """``_handle_fin`` as it was: ``on_remote_close`` uncorked, its
    writes and close already out when the FIN's ACK was judged."""
    fin_seq = seq_add(segment.seq, len(segment.payload))
    if fin_seq != self.rcv_nxt:
        return
    self.rcv_nxt = seq_add(self.rcv_nxt, 1)
    state = self.state
    if state is TcpState.ESTABLISHED or state is TcpState.SYN_RCVD:
        self.state = TcpState.CLOSE_WAIT
    if self.on_remote_close:
        self.on_remote_close(self)
    if self.ack_sent != self.rcv_nxt:
        self._emit(ACK, self.snd_nxt, self.rcv_nxt)
    state = self.state
    if state is TcpState.FIN_WAIT_1:
        self.state = TcpState.CLOSING
    elif state is TcpState.FIN_WAIT_2:
        self._enter_time_wait()


@pytest.fixture
def old_segments(monkeypatch):
    """Put back an endpoint that sent a segment per write and per
    close, inside a callback or not, and answered a data-and-FIN
    segment's data before its FIN; and a containment server that,
    after an endpoint verdict, kept its leg open (``abandon`` does
    nothing): it acked what followed the shim and closed on the
    client's FIN."""
    for name, method in (("send", _flushing_send),
                         ("close", _flushing_close),
                         ("abort", _flushless_abort),
                         ("abandon", lambda self: None),
                         ("_enter_established", _uncorked_enter_established),
                         ("segment_arrived",
                          _segment_arrived_fin_after_close),
                         ("_process_payload", _answering_process_payload),
                         ("_handle_fin", _uncorked_handle_fin)):
        monkeypatch.setattr(TcpConnection, name, method)


#: Every pin the coalesced answers and the silent server moved, as
#: recorded before them: the seed farm and the campaign, every fault
#: cell but the partition's, the obs-parity corpus, the scripted seed
#: farm of ``router_wire.json`` (each an endpoint verdict's server ACK
#: or FIN fewer, or a sink's or a web host's ACK of data that came with
#: a FIN) and the Figure 7 report (flow-table hits and misses: fewer
#: segments in its SMTP and C&C conversations, and no server frame on
#: a decided flow).
OLD_SEGMENTS_PINS = {
    "farm": "55b34027303d388340d9b076d0b9d0d0191f57fe2c755a7ea05ebd12391f9da0",
    "campaign":
        "96efc31f272f13e56e3fd0e1af0d44ca2e3484d9822a988b386024fac24af24a",
    "fault/baseline/drop":
        "69c577f3f540a70bce1e45539158531e5feaee5f81701ddddcc1c884fc121eb6",
    "fault/baseline/forward":
        "941655ad9d3e5960592c9f0738a83a045bfa7a2f8040ac938a08c574e81e1eff",
    "fault/cs_crash/drop":
        "1067aa96e20a1b1f26b619f25bf6af8dccdeacc7197aa2336eb41cbaa496f868",
    "fault/cs_crash/forward":
        "b7780ca4cb495a6056ff4978bb6a0b10b36421d32babdf5e146e23f562d6d1c7",
    "fault/cs_crash_restore/drop":
        "c1e0d044a8b9c5b2fac4c01a3017ef2333bf067a47df1700bcdc5ec6aaded970",
    "fault/cs_crash_restore/forward":
        "edf8c965aa8b1459760671ee5f1d624061c0729f2284a7ef2e87f143ad117d59",
    "fault/cs_hang/drop":
        "dd0ea1b8bbddd3b188eefcd9b5434503c826e3f210db1857017de853a32ac17c",
    "fault/cs_hang/forward":
        "4b0ece284f1a70e95aa2676eb867db32933742d40962bcb1ace3547a89bbf596",
    "fault/revert_fail/drop":
        "0c8554157b7cdf88a6d986759fab9fd3d782fee99c2e9438b96d7a5dee5f8e97",
    "fault/revert_fail/forward":
        "a8aacc51526f2e1e001cdfcd75c3b3a320be9e0fdbb4eccd6b73d0f43d774f38",
    "fault/shim_degraded/drop":
        "b828f8cf04b28413805a33846b0f62aa50123cb709c61635f339856fbc8e53ea",
    "fault/shim_degraded/forward":
        "235724f5710d14ac2d848aaf73f16dc7595111db416a39764ccea722bc7a4a7c",
    "obs": "490fa95cb52ce88e5df6dd79baa50f353c0910af8189841f14b46d851da038d8",
    "router_wire/farm-seed-23":
        "38d450cad6b6be720eaf9051a4a5f3db8007fa31699cea302f92982ec0b0c811",
    "fig7_report":
        "f60d8016fea1564bdfedd68012a20edcb0c2ec49fc99f36b51fd2aa240faadfc",
}
OLD_SEGMENTS_PRODUCERS = {
    **FARM_PINS,
    "obs": _obs_corpus_digest,
    "router_wire/farm-seed-23": lambda: wire_digest(
        test_fastpath.GOLDEN["farm-seed-23"]()),
    "fig7_report": lambda: _artefact("fig7-report"),
}


@pytest.mark.parametrize("name", sorted(OLD_SEGMENTS_PINS))
def test_pins_reconstruct_with_the_old_segments(old_segments, name):
    """Coalescing a callback's writes, answering data and FIN at once
    and silencing the server after an endpoint verdict moved what they
    move and nothing else: with the endpoint that answered each on its
    own and the server that kept talking put back, every pin they moved
    reads as it was."""
    assert OLD_SEGMENTS_PRODUCERS[name]() == OLD_SEGMENTS_PINS[name]


# ----------------------------------------------------------------------
# The handshake every pin up to the piggybacked third ACK was recorded on
# ----------------------------------------------------------------------
def _bare_ack_handle_syn_sent(self, segment):
    """``_handle_syn_sent`` as it was: the handshake's third ACK went
    out bare, ahead of anything ``on_established`` sent."""
    flags = segment.flags
    if flags & RST:
        self.state = TcpState.CLOSED
        if self.on_reset:
            self.on_reset(self)
        self._release()
        return
    if flags & SYN and flags & ACK and segment.ack == self.snd_nxt:
        self.irs = segment.seq
        self.rcv_nxt = seq_add(segment.seq, 1)
        self._emit(flags=ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
        self._enter_established()
        if segment.payload:
            self._process_payload(segment)


def _shim_behind_from_originator(router, row, packet):
    """``coupling.from_originator`` as it was: the segment that
    completed the handshake was relayed first and the request shim
    injected behind it, at the same sequence number, whatever the
    segment carried."""
    record = row.record
    record.last_activity = router.sim.now
    transport = packet.payload
    tcp = packet.proto == PROTO_TCP
    flags = transport.flags if tcp else 0
    if (flags & (SYN | ACK) == SYN
            and transport.seq != record.client_isn):
        housekeeping.evict(router, record)
        admission.new_flow(router, packet, vlan=record.vlan,
                           inmate_is_originator=record.inmate_is_originator)
        return
    phase = record.phase
    if phase not in LIVE_PHASES:
        return
    if flags & RST and row.spec.close != CLOSE_RETIRE:
        record.c2s_packets += 1
        record.c2s_bytes += len(transport.payload)
        housekeeping.abort_flow(router, record, notify_client=False)
    elif phase is FlowPhase.ENFORCED:
        apply(router, row, packet, packet_in=False)
    elif tcp and phase is FlowPhase.SHIM:
        record.client_buffer.extend(transport.payload)
        apply(router, row, packet, packet_in=False)
        if (not record.shim_injected and record.cs_isn is not None
                and flags & (SYN | ACK) == ACK):
            coupling.inject_request_shim(router, record)
    else:
        record.c2s_packets += 1
        record.c2s_bytes += len(transport.payload)
        if not tcp:
            record.hold_udp(transport.copy())
            return
        record.client_buffer.extend(transport.payload)
        if flags & FIN:
            record.client_fin = True


def _bare_ack_complete_handoff(router, record):
    """``handoff.complete_handoff`` as it was: the replay opened with a
    bare ACK of the destination's SYN-ACK, data or not."""
    record.phase = FlowPhase.ENFORCED
    ack = seq_add(record.dst_isn, 1)

    def replay(seq, flags, payload=b""):
        handoff.send_to_dst(router, record, TCPSegment(
            sport=record.orig.orig_port, dport=record.dst_port,
            seq=seq, ack=ack, flags=flags, payload=payload))

    seq = seq_add(record.client_isn, 1)
    replay(seq, ACK)
    buffered = bytes(record.client_buffer)
    record.client_buffer.clear()
    offset = 0
    while offset < len(buffered):
        chunk = buffered[offset:offset + 1460]
        offset += len(chunk)
        flags = ACK | PSH
        if record.client_fin and offset >= len(buffered):
            flags |= FIN
            record.client_fin_relayed = True
        replay(seq, flags, chunk)
        seq = seq_add(seq, len(chunk))
    if record.client_fin and not record.client_fin_relayed:
        record.client_fin_relayed = True
        replay(seq, FIN | ACK)
    if record.client_fin_relayed:
        record.closing = [None, seq_add(seq, 1)]
    handoff.install(router, record)


@pytest.fixture
def old_handshake(monkeypatch, old_segments):
    """Put back the bare third ACK of every handshake: the endpoint's,
    ahead of what ``on_established`` sent; the gateway's order, which
    relayed a handshake-completing segment ahead of the request shim;
    and the handoff replay's, ahead of the replayed data."""
    monkeypatch.setattr(TcpConnection, "_handle_syn_sent",
                        _bare_ack_handle_syn_sent)
    monkeypatch.setattr(coupling, "from_originator",
                        _shim_behind_from_originator)
    monkeypatch.setattr(handoff, "complete_handoff",
                        _bare_ack_complete_handoff)


#: Every pin the piggybacked third ACK moved, as recorded before it:
#: the seed farm, the campaign and every fault cell but the partition's
#: (frames and events fewer), the obs-parity corpus, the router
#: scripts and their quick fuzz slice (a script's handshake-completing
#: segment that carries data now follows the request shim), the
#: scripted seed farm of ``router_wire.json``, the inmate-side carriers
#: of the three carrier farms (the shim frame is captured after the
#: inmate segment it now precedes, at the same time and with the same
#: bytes) and four artefacts: the Figure 5 ladder (no bare ACKs), the
#: Figure 7 report (table misses), the handoff ablation (server
#: packets) and the gateway's packets relayed in the scalability run.
OLD_HANDSHAKE_PINS = {
    "farm": "ef87a898c6b5e9008bddb99ec2f24fb5a4ce8c5810e7dd3d0e1b6634817b4ede",
    "campaign":
        "c59ed2cfe0ec32bddc61b2ccef2db3c677e33b35dbf75219c7b6b7c8d0ab6006",
    "fault/baseline/drop":
        "8bad87c737ce6b342a2bb3d48555c7ab4335f962bbbb6f201d828601d2baad7e",
    "fault/baseline/forward":
        "dce746ee85122d570d26625931e1fbe3d595f0c8652ace85cd6ea11818bca49c",
    "fault/cs_crash/drop":
        "6e6cfeabc32c7198357c52b7e93bfb9e51e8fb7ce460709c714ad95de288996e",
    "fault/cs_crash/forward":
        "d91cf78b361e824a88d41dbbc193572c8d60cd238be7742a65f95baa3dec85b5",
    "fault/cs_crash_restore/drop":
        "10c44bb9248c1ff3c9c80708c1341bcafd16247ff82777b9f217a47146ecb7c5",
    "fault/cs_crash_restore/forward":
        "844d44494c7b8ebb0b6d399f848c054bad4b9b56fb18530fdd9413808340d61f",
    "fault/cs_hang/drop":
        "1e48c6b3b635f4ca923ba9dde1fed746a652ccc36f7426a1fa4bfbe604daf029",
    "fault/cs_hang/forward":
        "a0826d3ff2cfd468d865994ecf3aacab5f8c997b7d9defa8918cafa64411f914",
    "fault/revert_fail/drop":
        "aa1abe7affbb17453212884899588ccb397564c3a8be53d134982e9817aef016",
    "fault/revert_fail/forward":
        "cc7c94e8e2352f2db8c1507965d29fe2526b3ff482ab4547293e519bc5ca4cdd",
    "fault/shim_degraded/drop":
        "a61d71bfdf0677c33dc8d08e25be89d038dc6ae60048090ef608e6e18d2af4da",
    "fault/shim_degraded/forward":
        "6b70a25c50579b46c68a428ba3e6a09a0f1605c9db6afa412ccf2bde90561bfd",
    "obs": "25451c0660897b7d63f318193ccdde45611600c842f29dd3ab04b44671e154d2",
    "router_scripts":
        "807e7c44fe787e68ce8014f7a6854ce5782990d11f28566bffdc1dad6a8e6bb4",
    "fuzz/router":
        "5a5f5436aa56384677f953e2434a9510d58b495dfe2c983e9c035869a2a31193",
    "router_wire/farm-seed-23":
        "13bb2356c8f20f0d95247d7c363e993eb3e2ea499634232fc9c7e0460b54417c",
    "carriers/churn/inmate":
        "fd98eb42b8c09f6171456f7903c89a11ae14342615bb180aa629fa649b3a9bb2",
    "carriers/scan/inmate":
        "a266fa40821d2e58f90a2595a9c6050063d77a690463b052729f051054038876",
    "carriers/stream/inmate":
        "16b34f36472ac3743aabeb9373178c0f8a76ee24b5c0fb7dce677bfe3c62f1e0",
    "fig5_rewrite_ladder":
        "9aea6496aba5399ecad662e42ac4830a513c2f0e75e59b54237b0ab3764d5fd6",
    "fig7_report":
        "9e63d7a02290dfb4a4ce7d8148f15039a8f442006836a141464d14e54a86286d",
    "ablation_handoff":
        "0cc43202a487fd95be91a89521b8a7e9eff520b0cc66c1695f65fb1d00e1960d",
    "scalability":
        "5b522a612bf5fff6a0600e8a809516d0c6212c7bddcca5e9834b1748aea5ea02",
}
OLD_HANDSHAKE_PRODUCERS = {
    **FARM_PINS,
    "obs": _obs_corpus_digest,
    "router_scripts": _scripts_digest,
    "fuzz/router": _fuzz_router_digest,
    "router_wire/farm-seed-23": lambda: wire_digest(
        test_fastpath.GOLDEN["farm-seed-23"]()),
    **{f"carriers/{name}/inmate": (lambda run=run: run()["inmate"])
       for name, run in test_wire_carriers.FARMS.items()},
    **{row.filename[:-len(".txt")]: (lambda name=name: _artefact(name))
       for name, row in ARTEFACTS.items()
       if name in ("fig5-rewrite-ladder", "fig7-report", "ablation-handoff",
                   "scalability")},
}


@pytest.mark.parametrize("name", sorted(OLD_HANDSHAKE_PINS))
def test_pins_reconstruct_with_the_bare_third_ack(old_handshake, name):
    """The third ACK riding on the first data moved what it moves and
    nothing else: with the endpoint, the gateway and the handoff replay
    that sent it bare put back, every pin it moved reads as it was."""
    assert OLD_HANDSHAKE_PRODUCERS[name]() == OLD_HANDSHAKE_PINS[name]


def _inmate_carriers(name: str) -> list:
    """``(timestamp, point, bytes)`` of every carrier frame on the
    inmate-side traces of carrier farm ``name``, in capture order."""
    held = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(test_wire_carriers, "carrier_digests", held.append)
        test_wire_carriers.FARMS[name]()
    (farm,) = held
    return [(record.timestamp, record.point, record.frame.to_bytes())
            for sub in farm.subfarms.values()
            for record in sub.router.trace.records
            if test_wire_carriers.carries(record.frame)]


@pytest.mark.parametrize("name", sorted(test_wire_carriers.FARMS))
def test_inmate_carriers_move_only_in_order(request, name):
    """The inmate-side carrier pins moved by order alone: the request
    shim is captured after the inmate segment it now precedes on the
    server's leg, and every carrier frame is the one the bare third
    ACK's run captured, at the same time and with the same bytes."""
    frames = _inmate_carriers(name)
    request.getfixturevalue("old_handshake")
    old = _inmate_carriers(name)
    assert frames != old
    assert sorted(frames) == sorted(old)


def digest_farm(config):
    """The one farm digest recipe over an explicit FarmConfig."""
    farm = Farm(config)
    echo(farm.add_external_host("echo", TARGET_IP), TARGET_PORT)
    sub = farm.create_subfarm("bench")
    sub.set_default_policy(AllowAll())
    for _ in range(3):
        sub.create_inmate(image_factory=_streaming_image(20))
    farm.run(until=90.0)
    return farm_digest(farm)[0]


class TestEmptyPlanIsInvisible:
    def test_explicit_empty_plan_matches_default(self):
        default = digest_farm(FarmConfig(seed=5, telemetry=True))
        empty_dict = digest_farm(FarmConfig(seed=5, telemetry=True,
                                            fault_plan={"specs": []}))
        empty_obj = digest_farm(FarmConfig(seed=5, telemetry=True,
                                           fault_plan=FaultPlan()))
        assert default == empty_dict == empty_obj

    def test_empty_plan_installs_no_injector(self):
        farm = Farm(FarmConfig(seed=5, fault_plan={"specs": []}))
        assert farm.config.fault_plan.is_empty
        assert farm.fault_injector is None
