"""Shared test fixtures and topology builders: a flat LAN, a Python
call counter, a standalone router harness, and the seed farm runs the
tracked digests pin (``tests/golden/farm_digests.json``)."""

from __future__ import annotations

import gc
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, List, Tuple

from repro.core.policy import AllowAll
from repro.core.server import CS_DEFAULT_PORT
from repro.core.shim import ResponseShim
from repro.core.verdicts import Verdict
from repro.farm import Farm, FarmConfig
from repro.gateway.egress import Egress
from repro.gateway.nat import AddressPool, InboundMode, NatTable
from repro.gateway.router import SubfarmRouter
from repro.gateway.safety import SafetyFilter
from repro.net.addresses import IPv4Address, IPv4Network, MacAddress
from repro.net.flow import FiveTuple
from repro.net.host import Host
from repro.net.http import HttpRequest, HttpResponse, echo, request, serve
from repro.net.link import Link, Switch
from repro.net.packet import (
    ACK,
    EthernetFrame,
    IPv4Packet,
    PSH,
    SYN,
    TCPSegment,
    UDPDatagram,
)
from repro.parallel.tasks import (
    TARGET_IP,
    TARGET_PORT,
    _streaming_image,
    farm_digest,
    farm_wire_digest,
)
from repro.services.dhcp import DhcpClient
from repro.sim.engine import Simulator


def python_calls(fn: Callable[[], object]) -> Counter:
    """Run ``fn`` and count Python-level calls by
    ``(file basename, function name)``; C calls are not counted."""
    calls: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[(code.co_filename.rpartition("/")[2], code.co_name)] += 1

    # A cyclic-GC pass in the middle of ``fn`` would run whatever
    # finalizers earlier tests left behind (a suspended generator is
    # resumed to be closed) and charge their frames to ``fn``.
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def lan(
    num_hosts: int = 2, seed: int = 7, subnet: str = "10.0.0."
) -> Tuple[Simulator, Switch, List[Host]]:
    """A flat LAN: ``num_hosts`` hosts on one access-VLAN switch."""
    sim = Simulator(seed=seed)
    switch = Switch(sim, "lan")
    hosts = []
    for i in range(num_hosts):
        host = Host(sim, f"h{i}", ip=IPv4Address(f"{subnet}{i + 1}"))
        Link(sim, host.attach_port(), switch.attach_port(access_vlan=1))
        hosts.append(host)
    return sim, switch, hosts


# ----------------------------------------------------------------------
# Router micro-harness
# ----------------------------------------------------------------------
class CaptureEgress(Egress):
    """An egress that only appends what is sent through it to a log."""

    def __init__(self, log: list) -> None:
        self.log = log

    def send(self, packet) -> None:
        self.log.append(packet)


def newest_flow(router):
    """The record of the flow ``router`` created last, while it holds
    keys (the router keeps no record past that)."""
    live = router._by_mux
    return live[next(reversed(live))]


class Admitted(dict):
    """A router's ``_by_mux`` that also keeps, in creation order, every
    record it was given: what a script or a farm created, after the
    router has let it go (``router._by_mux = Admitted()`` before the
    first flow)."""

    def __init__(self) -> None:
        super().__init__()
        self.records = []

    def __setitem__(self, mux, record) -> None:
        super().__setitem__(mux, record)
        self.records.append(record)


class RouterHarness:
    """A SubfarmRouter wired to capture-only egress stubs, driven by
    hand-crafted packets so no host stacks or links dilute the
    measurement.  The harness is the router's egress side — what the
    Gateway is in a farm: one :class:`CaptureEgress` per target, all
    VLANs appending to ``to_vlan``, all service hosts to
    ``to_service``.  ``records`` is every flow the router created, in
    order."""

    def __init__(self, seed: int = 7) -> None:
        self.sim = Simulator(seed=seed)
        internal = AddressPool([IPv4Network("10.100.0.0/16")])
        global_pool = AddressPool([IPv4Network("198.18.0.0/24")])
        self.nat = NatTable(internal, global_pool,
                            inbound_mode=InboundMode.FORWARD)
        self.to_vlan = []
        self.to_service = []
        self.upstream = []
        self.upstream_egress = CaptureEgress(self.upstream)
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
        self.router._by_mux = Admitted()
        self.records = self.router._by_mux.records
        self.mac = MacAddress("02:00:00:00:00:02")

    def vlan_egress(self, vlan: int) -> CaptureEgress:
        egress = self._captures.get(vlan)
        if egress is None:
            egress = self._captures[vlan] = CaptureEgress(self.to_vlan)
        return egress

    def service_egress(self, ip: IPv4Address) -> CaptureEgress:
        egress = self._captures.get(ip)
        if egress is None:
            egress = self._captures[ip] = CaptureEgress(self.to_service)
        return egress

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
        record = newest_flow(router)
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
        record = newest_flow(router)
        shim = ResponseShim(self._shim_flow(record, target, target_port),
                            verdict, policy="bench", rate=rate).to_bytes()
        reply = UDPDatagram(CS_DEFAULT_PORT, record.mux_port, shim)
        router.service_frame(EthernetFrame(
            MacAddress("02:00:00:00:00:03"), self.mac,
            IPv4Packet(router.cs_ip, inmate_ip, reply)))
        return record


# ----------------------------------------------------------------------
# Seed farm runs
# ----------------------------------------------------------------------
def streaming_farm(seed: int, inmates: int, rounds: int, **config):
    """The digest-pinned farm, not yet run: one ``bench`` subfarm of
    streaming inmates under ``AllowAll`` against an external echo host.
    Returns ``(farm, subfarm)``."""
    farm = Farm(FarmConfig(seed=seed, telemetry=True, **config))
    echo(farm.add_external_host("echo", TARGET_IP), TARGET_PORT)
    sub = farm.create_subfarm("bench")
    sub.set_default_policy(AllowAll())
    for _ in range(inmates):
        sub.create_inmate(image_factory=_streaming_image(rounds))
    return farm, sub


def run_farm(seed: int, inmates: int, rounds: int,
             duration: float) -> dict:
    farm, sub = streaming_farm(seed, inmates, rounds)
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
    farm, sub = streaming_farm(seed, inmates, rounds,
                               batch_window=batch_window)
    farm.run(until=duration)
    return {
        "batch_window": batch_window,
        "digest": farm_wire_digest(farm).hexdigest(),
        "counters": dict(sub.router.counters),
        "flowtable": sub.router.flowtable.stats(),
    }


def churn_farm(seed: int, subfarms: int, inmates_per: int,
               interval: float = 2.5, start: float = 31.0,
               stop: float = 60.0):
    """A ``flow_churn``-shaped farm, not yet run: ``subfarms`` subfarms
    of ``inmates_per`` inmates under ``AllowAll``, each fetching
    ``/ping`` from an external web host about every ``interval``
    virtual seconds from ``start`` until ``stop``, closing each fetch
    once its response is in.  Returns ``(farm, fetched)``: one bool
    per finished fetch, whether its response was the expected one."""
    farm = Farm(FarmConfig(seed=seed))
    web = farm.add_external_host("web", TARGET_IP)
    serve(web, 80, lambda _request: HttpResponse(200, body=b"pong"))
    fetched: List[bool] = []

    def done(conn, response) -> None:
        fetched.append(response.status == 200 and response.body == b"pong")
        conn.close()

    def image(host):
        def configured(h):
            def tick():
                if h.sim.now >= stop:
                    return
                request(h, IPv4Address(TARGET_IP), 80,
                        HttpRequest("GET", "/ping"), done)
                h.sim.schedule(interval * h.rng.uniform(0.7, 1.3), tick,
                               label="fetch")

            h.sim.schedule_at(start + interval * h.rng.random(), tick,
                              label="fetch-start")

        DhcpClient(host, on_configured=configured).start()

    for index in range(subfarms):
        sub = farm.create_subfarm(f"churn-{index}")
        sub.set_default_policy(AllowAll())
        for _ in range(inmates_per):
            sub.create_inmate(image_factory=image)
    return farm, fetched
