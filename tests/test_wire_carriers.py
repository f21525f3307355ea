"""What a farm puts on the wire that carries something.

``tests/golden/carriers.json`` holds, for three small farms — one
stream-shaped, one churn-shaped, one scan-shaped — the sha256 of every
captured frame that carries a SYN, a FIN or payload (its timestamp,
capture point and bytes), on the upstream trace and on every
subfarm's inmate-side trace, and the sha256 of the flow log.  A frame
that carries none of these is a pure ACK or a bare RST: a TCP stack
may send fewer of them without moving any of the three.

Every frame that is not a TCP segment (ARP, DHCP, DNS, a datagram) is
a carrier.  The traces must hold every frame the run captured, so the
farms are small enough that no ring bound rotates one out.

Re-record only from a parent commit::

    PYTHONPATH=src python -m tests.golden.regen carriers
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess

import pytest

from repro.core.dsl import DslPolicy
from repro.experiments.scalability import WEB_IP, _web_server, flowgen_image
from repro.farm import Farm, FarmConfig
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.packet import (ACK, FIN, PSH, RST, SYN, EthernetFrame,
                              IPv4Packet, TCPSegment)
from tests import test_obs_parity
from tests.helpers import streaming_farm

pytestmark = pytest.mark.integration

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "carriers.json")


def carries(frame) -> bool:
    """Whether ``frame`` carries a SYN, a FIN, payload, or is no TCP
    segment at all."""
    packet = frame.payload
    if type(packet) is not IPv4Packet:
        return True
    segment = packet.payload
    if type(segment) is not TCPSegment:
        return True
    return bool(segment.flags & (SYN | FIN) or segment.payload)


def _trace_digest(traces) -> str:
    digest = hashlib.sha256()
    for trace in traces:
        assert trace.rotated_out == 0, trace.name
        for record in trace.records:
            if carries(record.frame):
                digest.update(f"{record.timestamp!r}|{record.point}|"
                              .encode())
                digest.update(record.frame.to_bytes())
    return digest.hexdigest()


def carrier_digests(farm) -> dict:
    """The three parts of a run's carrier pin: upstream trace,
    inmate-side traces (subfarms in name order) and flow logs."""
    subfarms = [farm.subfarms[name] for name in sorted(farm.subfarms)]
    flows = hashlib.sha256()
    for sub in subfarms:
        for entry in sub.router.flow_log:
            flows.update(
                f"{sub.name}|{entry.timestamp!r}|{entry.vlan}|"
                f"{entry.verdict}|{entry.orig}|{entry.policy}\n".encode())
    return {
        "upstream": _trace_digest([farm.gateway.upstream_trace]),
        "inmate": _trace_digest([sub.router.trace for sub in subfarms]),
        "flows": flows.hexdigest(),
    }


def stream_farm() -> dict:
    """Two inmates echoing 30 rounds each through AllowAll."""
    farm, _sub = streaming_farm(seed=11, inmates=2, rounds=30)
    farm.run(until=90.0)
    return carrier_digests(farm)


def churn_farm() -> dict:
    """Two subfarms of three inmates, each opening a short HTTP flow
    about every second; every flow forwarded."""
    farm = Farm(FarmConfig(seed=12))
    _web_server(farm.add_external_host("web", WEB_IP))
    for index in range(2):
        sub = farm.create_subfarm(f"churn-{index}")
        sub.add_catchall_sink()
        sub.set_default_policy(DslPolicy("default -> forward"))
        for _ in range(3):
            sub.create_inmate(image_factory=flowgen_image(1.0))
    farm.run(until=60.0)
    return carrier_digests(farm)


def scan_farm() -> dict:
    """Two subfarms of two worm-style scanners under the obs-parity
    DSL program: DROP, REFLECT and FORWARD verdicts, probes that
    linger before they close."""
    farm = Farm(FarmConfig(seed=13))
    _web_server(farm.add_external_host("web", WEB_IP))
    for index in range(2):
        sub = farm.create_subfarm(f"scan-{index}")
        sub.add_catchall_sink()
        sub.set_default_policy(DslPolicy(test_obs_parity.SCAN_PROGRAM))
        for _ in range(2):
            sub.create_inmate(
                image_factory=test_obs_parity._scan_image(0.5, 1.0))
    farm.run(until=test_obs_parity.DURATION)
    return carrier_digests(farm)


#: Farm name -> what runs it.
FARMS = {"stream": stream_farm, "churn": churn_farm, "scan": scan_farm}


def record() -> dict:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    return {"recorded_from": commit,
            "farms": {name: run() for name, run in FARMS.items()}}


@functools.lru_cache(maxsize=None)
def corpus() -> dict:
    with open(CORPUS_PATH) as handle:
        return json.load(handle)["farms"]


@pytest.mark.parametrize("name", sorted(FARMS))
def test_carrier_frames_match_the_pin(name):
    assert FARMS[name]() == corpus()[name]


def test_pure_acks_are_not_carriers():
    def frame(flags, payload=b""):
        return EthernetFrame(MacAddress("02:00:00:00:00:01"),
                             MacAddress("02:00:00:00:00:02"),
                             IPv4Packet(IPv4Address("10.0.0.1"),
                                        IPv4Address("10.0.0.2"),
                                        TCPSegment(1, 2, 3, 4, flags,
                                                   payload=payload)))

    assert not carries(frame(ACK))
    assert not carries(frame(RST | ACK))
    assert carries(frame(SYN))
    assert carries(frame(FIN | ACK))
    assert carries(frame(ACK | PSH, b"x"))
