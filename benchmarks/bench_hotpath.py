"""Hot-path benchmark: established-flow forwarding, flow setup, and
end-to-end farm throughput, with a determinism check.

Three measurements (see docs/PERFORMANCE.md for methodology):

1. *Forwarding* — a standalone :class:`SubfarmRouter` harness drives an
   established (post-verdict) TCP flow and pumps data packets through
   both directions of its flow-table entries, one frame at a time
   (``forwarding``) and as prebuilt :class:`WireBatch` columns through
   ``ingest_batch`` (``batch``, with a ≥3× floor over the scalar pump
   and byte-parity gates).  This isolates the per-packet router cost.
2. *Flow setup* — the same harness measures full shim round-trips
   (SYN → CS handshake → request/response shim → handoff) per second:
   the slow-path cost every flow pays exactly once.
3. *End-to-end* — a whole farm (gateway, switches, host TCP stacks,
   containment server) runs a streaming workload; virtual events/sec
   and packets/sec of wall-clock time.

Determinism: the end-to-end scenario is run twice with the same seed
and digested (flow logs, counters, upstream trace bytes, telemetry);
the digests must match.  ``--quick`` runs only the determinism and
batch-parity gates (CI smoke) and exits non-zero on drift.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py          # full, writes BENCH_hotpath.json
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick  # determinism smoke only
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from time import perf_counter

from repro.core.policy import AllowAll
from repro.core.server import CS_DEFAULT_PORT
from repro.core.shim import ResponseShim
from repro.core.verdicts import Verdict
from repro.farm import Farm, FarmConfig
from repro.gateway.egress import Egress
from repro.gateway.flowtable import EMIT_SERVICE, EMIT_UPSTREAM, EMIT_VLAN
from repro.gateway.nat import AddressPool, InboundMode, NatTable
from repro.gateway.router import SubfarmRouter
from repro.gateway.safety import SafetyFilter
from repro.net.wirebatch import BatchOutput, ORIGIN_UPSTREAM, WireBatch
from repro.net.addresses import IPv4Address, IPv4Network, MacAddress
from repro.net.packet import (
    ACK,
    EthernetFrame,
    IPv4Packet,
    PROTO_TCP,
    PSH,
    SYN,
    TCPSegment,
    UDPDatagram,
)
from repro.parallel.tasks import farm_digest
from repro.services.dhcp import DhcpClient
from repro.sim.engine import Simulator

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET_IP = "203.0.113.80"
TARGET_PORT = 80


# ----------------------------------------------------------------------
# Router micro-harness
# ----------------------------------------------------------------------
class CaptureEgress(Egress):
    """An egress that only appends what is sent through it to a log."""

    def __init__(self, code: int, arg, log: list) -> None:
        self.code = code
        self.arg = arg
        self.log = log

    def send(self, packet) -> None:
        self.log.append(packet)


class RouterHarness:
    """A SubfarmRouter wired to capture-only egress stubs, driven by
    hand-crafted packets so no host stacks or links dilute the
    measurement.  The harness is the router's egress side — what the
    Gateway is in a farm: one :class:`CaptureEgress` per target, all
    VLANs appending to ``to_vlan``, all service hosts to
    ``to_service``."""

    def __init__(self, seed: int = 7) -> None:
        self.sim = Simulator(seed=seed)
        internal = AddressPool([IPv4Network("10.100.0.0/16")])
        global_pool = AddressPool([IPv4Network("198.18.0.0/24")])
        self.nat = NatTable(internal, global_pool,
                            inbound_mode=InboundMode.FORWARD)
        self.to_vlan = []
        self.to_service = []
        self.upstream = []
        self.upstream_egress = CaptureEgress(EMIT_UPSTREAM, None,
                                             self.upstream)
        self._captures = {}
        self.router = SubfarmRouter(
            sim=self.sim,
            name="bench",
            vlan_ids={2},
            nat=self.nat,
            safety=SafetyFilter(10 ** 9, 10 ** 9, 60.0),
            cs_ip=IPv4Address("10.3.0.1"),
            cs_tcp_port=CS_DEFAULT_PORT,
            cs_udp_port=CS_DEFAULT_PORT,
            gateway_ip=IPv4Address("10.100.0.1"),
            dns_ip=None,
            egress=self,
        )
        # Bound capture so multi-hundred-thousand-packet pumps do not
        # hold every frame (identical cost in both modes).
        self.router.trace.max_records = 256
        self.mac = MacAddress("02:00:00:00:00:02")

    def vlan_egress(self, vlan: int) -> CaptureEgress:
        egress = self._captures.get(vlan)
        if egress is None:
            egress = self._captures[vlan] = CaptureEgress(
                EMIT_VLAN, vlan, self.to_vlan)
        return egress

    def service_egress(self, ip: IPv4Address) -> CaptureEgress:
        egress = self._captures.get(ip)
        if egress is None:
            egress = self._captures[ip] = CaptureEgress(
                EMIT_SERVICE, ip, self.to_service)
        return egress

    def egresses(self) -> list:
        return [self.upstream_egress, *self._captures.values()]

    def drain(self) -> None:
        self.to_vlan.clear()
        self.to_service.clear()
        self.upstream.clear()

    def inmate_tcp(self, vlan, src, sport, dport, seq, ack, flags,
                   payload=b"") -> None:
        segment = TCPSegment(sport, dport, seq, ack, flags, payload=payload)
        packet = IPv4Packet(src, IPv4Address(TARGET_IP), segment)
        frame = EthernetFrame(self.mac, MacAddress("02:00:00:00:00:01"),
                              packet, vlan=vlan)
        self.router.inmate_frame(frame, vlan)

    def _shim_flow(self, record, target, target_port):
        if target is None:
            return record.orig
        from repro.net.flow import FiveTuple
        orig = record.orig
        return FiveTuple(orig.orig_ip, orig.orig_port, IPv4Address(target),
                         target_port if target_port is not None
                         else orig.resp_port, orig.proto)

    def establish_flow(self, vlan: int, sport: int,
                       verdict: Verdict = Verdict.FORWARD,
                       target=None, target_port=None, rate=None,
                       client_isn: int = 1000, dst_isn: int = 9000):
        """Run one TCP flow through the full shim protocol to its
        post-verdict phase and return the FlowRecord."""
        router = self.router
        inmate_ip = self.nat.bind(vlan)
        cs_isn = 5000
        self.inmate_tcp(vlan, inmate_ip, sport, TARGET_PORT,
                        client_isn, 0, SYN)
        record = router.flows()[-1]
        mux = record.mux_port
        # Containment server SYN-ACK.
        synack = TCPSegment(CS_DEFAULT_PORT, mux, cs_isn,
                            client_isn + 1, SYN | ACK)
        router.service_frame(EthernetFrame(
            MacAddress("02:00:00:00:00:03"), self.mac,
            IPv4Packet(router.cs_ip, inmate_ip, synack)))
        # Client ACK completes the handshake; the request shim goes in.
        self.inmate_tcp(vlan, inmate_ip, sport, TARGET_PORT,
                        client_isn + 1, cs_isn + 1, ACK)
        # Containment server answers with the response shim.
        shim = ResponseShim(self._shim_flow(record, target, target_port),
                            verdict, policy="bench", rate=rate).to_bytes()
        response = TCPSegment(CS_DEFAULT_PORT, mux, cs_isn + 1,
                              client_isn + 1 + record.c2s_inj,
                              ACK | PSH, payload=shim)
        router.service_frame(EthernetFrame(
            MacAddress("02:00:00:00:00:03"), self.mac,
            IPv4Packet(router.cs_ip, inmate_ip, response)))
        if verdict & (Verdict.DROP | Verdict.REWRITE):
            return record  # no handoff: terminal or CS-coupled
        # Destination SYN-ACK completes the handoff.  REFLECT preserves
        # the spoofed original destination; REDIRECT answers from the
        # new target; FORWARD/LIMIT from the original one.
        if record.spoof_preserve:
            reply_ip, local_ip = record.orig.resp_ip, inmate_ip
        else:
            reply_ip = record.dst_ip
            local_ip = record.nat_global or inmate_ip
        dst_synack = TCPSegment(record.dst_port, sport, dst_isn,
                                client_isn + 1, SYN | ACK)
        router.upstream_packet(IPv4Packet(reply_ip, local_ip, dst_synack))
        return record

    def inmate_udp(self, vlan, src, sport, dport, payload=b"") -> None:
        datagram = UDPDatagram(sport, dport, payload)
        packet = IPv4Packet(src, IPv4Address(TARGET_IP), datagram)
        frame = EthernetFrame(self.mac, MacAddress("02:00:00:00:00:01"),
                              packet, vlan=vlan)
        self.router.inmate_frame(frame, vlan)

    def establish_udp_flow(self, vlan: int, sport: int,
                           verdict: Verdict = Verdict.FORWARD,
                           target=None, target_port=None, rate=None,
                           first_payload: bytes = b"hello"):
        """Run one UDP flow through the shim protocol (first datagram
        diverted to the CS, shim response applies the verdict)."""
        router = self.router
        inmate_ip = self.nat.bind(vlan)
        self.inmate_udp(vlan, inmate_ip, sport, TARGET_PORT, first_payload)
        record = router.flows()[-1]
        shim = ResponseShim(self._shim_flow(record, target, target_port),
                            verdict, policy="bench", rate=rate).to_bytes()
        reply = UDPDatagram(CS_DEFAULT_PORT, record.mux_port, shim)
        router.service_frame(EthernetFrame(
            MacAddress("02:00:00:00:00:03"), self.mac,
            IPv4Packet(router.cs_ip, inmate_ip, reply)))
        return record


def bench_forwarding(packets: int, seed: int = 7,
                     repeats: int = 3) -> dict:
    """Packets/sec through an established flow, both directions.

    Best of ``repeats`` timed pumps: wall-clock noise (a shared CPU, a
    GC pause) only ever makes a run slower, so the fastest repeat is
    the most faithful estimate of the code's cost.
    """
    harness = RouterHarness(seed=seed)
    record = harness.establish_flow(vlan=2, sport=40000)
    assert record.phase.value == "enforced", record.phase
    inmate_ip = record.orig.orig_ip
    payload = b"x" * 512
    # Prebuilt packets: the router copies before mutating, so one
    # template per direction keeps allocation noise out of the loop.
    c2d = TCPSegment(40000, TARGET_PORT, 2000, 9001, ACK | PSH,
                     payload=payload)
    frame = EthernetFrame(harness.mac, MacAddress("02:00:00:00:00:01"),
                          IPv4Packet(inmate_ip, IPv4Address(TARGET_IP), c2d),
                          vlan=2)
    d2c = IPv4Packet(IPv4Address(TARGET_IP),
                     record.nat_global or inmate_ip,
                     TCPSegment(TARGET_PORT, 40000, 9500, 2001, ACK | PSH,
                                payload=payload))
    router = harness.router
    half = packets // 2
    best = float("inf")
    forwarded = 0
    for _ in range(repeats):
        harness.drain()
        started = perf_counter()
        for _ in range(half):
            router.inmate_frame(frame, 2)
        for _ in range(half):
            router.upstream_packet(d2c)
        elapsed = perf_counter() - started
        best = min(best, elapsed)
        forwarded = len(harness.to_vlan) + len(harness.upstream)
    return {
        "packets": 2 * half,
        "forwarded": forwarded,
        "seconds": round(best, 4),
        "packets_per_sec": round(2 * half / best) if best else 0,
    }


def _build_pump_batches(record, chunk: int, payload: bytes):
    """The forwarding pump's two directions as prebuilt WireBatches:
    ``chunk`` client→destination rows and ``chunk`` destination→client
    rows, each a single same-key run (the shape the gateway's trunk
    coalescing produces for a streaming flow)."""
    inmate_ip = record.orig.orig_ip
    nat_global = record.nat_global or inmate_ip
    target = IPv4Address(TARGET_IP).value
    size = len(payload)
    c2d = WireBatch()
    for index in range(chunk):
        c2d.append_tcp(inmate_ip.value, 40000, target, TARGET_PORT,
                       2000 + index * size, 9001, ACK | PSH, 65535,
                       payload, vlan=2)
    d2c = WireBatch()
    for index in range(chunk):
        d2c.append_tcp(target, TARGET_PORT, nat_global.value, 40000,
                       9500 + index * size, 2001, ACK | PSH, 65535,
                       payload, origin=ORIGIN_UPSTREAM)
    return c2d, d2c


def bench_batch(packets: int, seed: int = 7, chunk: int = 256,
                repeats: int = 3) -> dict:
    """Packets/sec through the batched struct-of-arrays datapath.

    Same established flow and packet mix as :func:`bench_forwarding`,
    but rows arrive as prebuilt :class:`WireBatch` chunks and run
    through ``ingest_batch`` — measured once table-apply only
    (``ingest``, comparable to the scalar pump, which also never
    serializes) and once including the per-run wire serialization pass
    (``wire``).
    """
    harness = RouterHarness(seed=seed)
    record = harness.establish_flow(vlan=2, sport=40000)
    assert record.phase.value == "enforced", record.phase
    payload = b"x" * 512
    c2d, d2c = _build_pump_batches(record, chunk, payload)
    router = harness.router
    iters = max(1, packets // (2 * chunk))
    total = 2 * chunk * iters
    best_ingest = best_wire = float("inf")
    for _ in range(repeats):
        harness.drain()
        started = perf_counter()
        for _ in range(iters):
            out = BatchOutput()
            router.ingest_batch(c2d, out)
            router.ingest_batch(d2c, out)
        best_ingest = min(best_ingest, perf_counter() - started)
        started = perf_counter()
        for _ in range(iters):
            out = BatchOutput()
            router.ingest_batch(c2d, out)
            router.ingest_batch(d2c, out)
            out.serialize()
        best_wire = min(best_wire, perf_counter() - started)
    return {
        "packets": total,
        "chunk": chunk,
        "ingest_seconds": round(best_ingest, 4),
        "ingest_packets_per_sec": round(total / best_ingest)
        if best_ingest else 0,
        "wire_seconds": round(best_wire, 4),
        "wire_packets_per_sec": round(total / best_wire)
        if best_wire else 0,
    }


def batch_parity(seed: int = 7, rows: int = 64) -> dict:
    """Byte-parity gate: the same rows pumped scalar (one frame at a
    time through ``inmate_frame``/``upstream_packet``) and batched
    (one ``ingest_batch`` call) must produce identical wire bytes per
    emission channel, identical router counters, and identical
    flow-table stats."""
    payload = b"x" * 512
    target = IPv4Address(TARGET_IP)

    scalar = RouterHarness(seed=seed)
    record = scalar.establish_flow(vlan=2, sport=40000)
    inmate_ip = record.orig.orig_ip
    nat_global = record.nat_global or inmate_ip
    scalar.drain()
    for index in range(rows):
        segment = TCPSegment(40000, TARGET_PORT, 2000 + index * 512,
                             9001, ACK | PSH, payload=payload)
        frame = EthernetFrame(scalar.mac, MacAddress("02:00:00:00:00:01"),
                              IPv4Packet(inmate_ip, target, segment),
                              vlan=2)
        scalar.router.inmate_frame(frame, 2)
    for index in range(rows):
        scalar.router.upstream_packet(IPv4Packet(
            target, nat_global,
            TCPSegment(TARGET_PORT, 40000, 9500 + index * 512, 2001,
                       ACK | PSH, payload=payload)))
    reference = {
        EMIT_UPSTREAM: [p.to_bytes() for p in scalar.upstream],
        EMIT_VLAN: [p.to_bytes() for p in scalar.to_vlan],
    }

    batched = RouterHarness(seed=seed)
    batched.establish_flow(vlan=2, sport=40000)
    batch = WireBatch()
    for index in range(rows):
        batch.append_tcp(inmate_ip.value, 40000, target.value,
                         TARGET_PORT, 2000 + index * 512, 9001,
                         ACK | PSH, 65535, payload, vlan=2)
    for index in range(rows):
        batch.append_tcp(target.value, TARGET_PORT, nat_global.value,
                         40000, 9500 + index * 512, 2001, ACK | PSH,
                         65535, payload, origin=ORIGIN_UPSTREAM)
    out = BatchOutput()
    batched.router.ingest_batch(batch, out)
    channels = out.by_channel()

    return {
        "rows": 2 * rows,
        "wires_match": (
            channels.get(EMIT_UPSTREAM, []) == reference[EMIT_UPSTREAM]
            and channels.get(EMIT_VLAN, []) == reference[EMIT_VLAN]),
        "counters_match": (dict(scalar.router.counters)
                           == dict(batched.router.counters)),
        "stats_match": (scalar.router.flowtable.stats()
                        == batched.router.flowtable.stats()),
    }


def bench_flow_setup(flows: int, seed: int = 7) -> dict:
    """Full shim round-trips per second (the slow path, paid once per
    flow)."""
    harness = RouterHarness(seed=seed)
    started = perf_counter()
    for index in range(flows):
        harness.establish_flow(vlan=2 + (index % 64), sport=30000 + index)
    elapsed = perf_counter() - started
    return {
        "flows": flows,
        "seconds": round(elapsed, 4),
        "flows_per_sec": round(flows / elapsed) if elapsed else 0,
    }


# ----------------------------------------------------------------------
# End-to-end farm workload
# ----------------------------------------------------------------------
def streaming_image(rounds: int, chunk: int = 512):
    """An inmate that opens one connection and ping-pongs ``rounds``
    chunks over it — post-verdict forwarding dominates."""

    def image(host):
        def configured(h):
            def start():
                conn = h.tcp.connect(IPv4Address(TARGET_IP), TARGET_PORT)
                state = {"rounds": 0}

                def on_data(c, data):
                    state["rounds"] += 1
                    if state["rounds"] >= rounds:
                        c.close()
                    else:
                        c.send(b"x" * chunk)

                conn.on_established = lambda c: c.send(b"x" * chunk)
                conn.on_data = on_data

            h.sim.schedule(1.0, start, label="stream-start")

        DhcpClient(host, on_configured=configured).start()

    return image


def _echo_server(host) -> None:
    def on_accept(conn):
        conn.on_data = lambda c, data: c.send(data)
        conn.on_remote_close = lambda c: c.close()

    host.tcp.listen(TARGET_PORT, on_accept)


def run_farm(seed: int, inmates: int, rounds: int,
             duration: float) -> dict:
    farm = Farm(FarmConfig(seed=seed, telemetry=True))
    _echo_server(farm.add_external_host("echo", TARGET_IP))
    sub = farm.create_subfarm("bench")
    sub.set_default_policy(AllowAll())
    for _ in range(inmates):
        sub.create_inmate(image_factory=streaming_image(rounds))
    started = perf_counter()
    farm.run(until=duration)
    elapsed = perf_counter() - started
    counters = dict(sub.router.counters)
    digest, _ = farm_digest(farm)
    return {
        "events": farm.sim.events_processed,
        "packets_relayed": counters["packets_relayed"],
        "flows_created": counters["flows_created"],
        "virtual_seconds": farm.sim.now,
        "seconds": round(elapsed, 4),
        "events_per_sec": round(farm.sim.events_processed / elapsed)
        if elapsed else 0,
        "packets_per_sec": round(counters["packets_relayed"] / elapsed)
        if elapsed else 0,
        "digest": digest,
    }


def run_farm_flow_digest(seed: int, inmates: int, rounds: int,
                         duration: float,
                         batch_window=None) -> dict:
    """``run_farm`` with a configurable trunk batch window, digesting
    only wire-level evidence (counters, flow log, upstream trace
    bytes).  Telemetry stays out: a positive window legitimately
    shifts event-stride gauge samples without changing any wire
    behavior, and this digest must isolate the latter."""
    farm = Farm(FarmConfig(seed=seed, telemetry=True,
                           batch_window=batch_window))
    _echo_server(farm.add_external_host("echo", TARGET_IP))
    sub = farm.create_subfarm("bench")
    sub.set_default_policy(AllowAll())
    for _ in range(inmates):
        sub.create_inmate(image_factory=streaming_image(rounds))
    farm.run(until=duration)
    counters = dict(sub.router.counters)
    digest = hashlib.sha256()
    digest.update(json.dumps(counters, sort_keys=True).encode())
    for entry in sub.router.flow_log:
        digest.update(
            f"{entry.timestamp:.9f}|{entry.vlan}|{entry.verdict}"
            f"|{entry.orig}|{entry.policy}".encode())
    for rec in farm.gateway.upstream_trace.records:
        digest.update(rec.frame.to_bytes())
    return {
        "batch_window": batch_window,
        "digest": digest.hexdigest(),
        "counters": counters,
        "flowtable": sub.router.flowtable.stats(),
    }


def run_batch_determinism(seed: int, inmates: int, rounds: int,
                          duration: float,
                          window: float = 0.005) -> dict:
    """Batch-vs-scalar farm gate.  A zero window coalesces only
    naturally coincident frames (timing untouched), so its flow digest
    must be byte-identical to the unbatched farm; a positive window
    quantizes delivery times (timestamps legitimately move) but every
    router counter and flow-table stat must still match."""
    base = run_farm_flow_digest(seed, inmates, rounds, duration)
    zero = run_farm_flow_digest(seed, inmates, rounds, duration,
                                batch_window=0.0)
    windowed = run_farm_flow_digest(seed, inmates, rounds, duration,
                                    batch_window=window)
    return {
        "digest": base["digest"],
        "window": window,
        "coincident_parity_match": zero["digest"] == base["digest"],
        "window_counters_match": (
            windowed["counters"] == base["counters"]
            and windowed["flowtable"] == base["flowtable"]),
    }


# ----------------------------------------------------------------------
def run_determinism(seed: int, inmates: int, rounds: int,
                    duration: float) -> dict:
    """Same-seed replay digests."""
    first = run_farm(seed, inmates, rounds, duration)
    second = run_farm(seed, inmates, rounds, duration)
    return {
        "digest": first["digest"],
        "same_seed_match": first["digest"] == second["digest"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="determinism smoke only (CI); no JSON output")
    parser.add_argument("--packets", type=int, default=200_000,
                        help="data packets for the forwarding benchmark")
    parser.add_argument("--flows", type=int, default=2_000,
                        help="flows for the setup benchmark")
    parser.add_argument("--inmates", type=int, default=8)
    parser.add_argument("--rounds", type=int, default=400,
                        help="chunks each inmate streams end-to-end")
    parser.add_argument("--duration", type=float, default=300.0)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--output", default=os.path.join(
        REPO_ROOT, "BENCH_hotpath.json"))
    args = parser.parse_args(argv)

    if args.quick:
        determinism = run_determinism(args.seed, inmates=3, rounds=40,
                                      duration=120.0)
        parity = batch_parity(seed=args.seed)
        batch_det = run_batch_determinism(args.seed, inmates=3,
                                          rounds=40, duration=120.0)
        forwarding = bench_forwarding(5_000, seed=args.seed)
        print(json.dumps({"determinism": determinism,
                          "batch_parity": parity,
                          "batch_determinism": batch_det,
                          "forward_smoke_pps":
                              forwarding["packets_per_sec"]},
                         indent=2))
        if not determinism["same_seed_match"]:
            print("FAIL: same-seed replay digests differ", file=sys.stderr)
            return 1
        if not (parity["wires_match"] and parity["counters_match"]
                and parity["stats_match"]):
            print("FAIL: batched datapath diverges from scalar "
                  f"({parity})", file=sys.stderr)
            return 1
        if not batch_det["coincident_parity_match"]:
            print("FAIL: batch_window=0 farm digest differs from "
                  "unbatched", file=sys.stderr)
            return 1
        if not batch_det["window_counters_match"]:
            print("FAIL: windowed farm counters differ from unbatched",
                  file=sys.stderr)
            return 1
        print("determinism OK")
        return 0

    forwarding = bench_forwarding(args.packets, seed=args.seed)
    batch = bench_batch(args.packets, seed=args.seed)
    parity = batch_parity(seed=args.seed)
    batch_det = run_batch_determinism(args.seed, inmates=3, rounds=40,
                                      duration=120.0)
    setup = bench_flow_setup(args.flows, seed=args.seed)
    end_to_end = run_farm(args.seed, args.inmates, args.rounds,
                          args.duration)
    determinism = run_determinism(args.seed, inmates=3, rounds=40,
                                  duration=120.0)

    result = {
        "benchmark": "bench_hotpath",
        "config": {
            "seed": args.seed, "packets": args.packets,
            "flows": args.flows, "inmates": args.inmates,
            "rounds": args.rounds, "duration": args.duration,
            "python": sys.version.split()[0],
        },
        "forwarding": forwarding,
        "batch": {
            "datapath": batch,
            "speedup_vs_scalar": round(
                batch["ingest_packets_per_sec"]
                / forwarding["packets_per_sec"], 3)
            if forwarding["packets_per_sec"] else 0.0,
            "parity": parity,
            "determinism": batch_det,
        },
        "flow_setup": setup,
        "end_to_end": {k: v for k, v in end_to_end.items()
                       if k != "digest"},
        "determinism": determinism,
    }
    print(json.dumps(result, indent=2))
    with open(args.output, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.output}")
    ok = (determinism["same_seed_match"]
          and parity["wires_match"] and parity["counters_match"]
          and parity["stats_match"]
          and batch_det["coincident_parity_match"]
          and batch_det["window_counters_match"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
