"""The gateway malice barrier: counting, quarantine, and policy.

The contract (docs/HARDENING.md): a ParseError raised anywhere inside
gateway or containment-server ingest is caught by the barrier — never
unwinding the event loop — counted per (vlan, protocol), quarantined
to a pcap, and answered per the configured ``malice_policy``.
"""

from __future__ import annotations

import struct

import pytest

from repro.farm import Farm, FarmConfig
from repro.gateway.barrier import (
    DEFAULT_QUARANTINE_MAX,
    MaliceBarrier,
    POLICIES,
)
from repro.net.errors import ParseError
from repro.sim.engine import Simulator

# An untagged frame claiming an IPv4 payload whose version/IHL byte
# lies — guaranteed ParseError from the ethernet/ipv4 parser chain.
GARBAGE = bytes(12) + b"\x08\x00" + b"\xff\xff\xff\xff"


def make_barrier(**kwargs) -> MaliceBarrier:
    return MaliceBarrier(Simulator(seed=1), "sub0", **kwargs)


class TestBarrierUnit:
    def test_record_counts_per_vlan_and_protocol(self):
        barrier = make_barrier()
        error = ParseError("dns", "loop", offset=12)
        barrier.record(error, vlan=7, data=b"x")
        barrier.record(error, vlan=7, data=b"y")
        barrier.record(ParseError("tcp", "bad offset"), vlan=9, data=b"z")
        assert barrier.parse_errors == 3
        assert barrier.counts[(7, "dns")] == 2
        assert barrier.counts[(9, "tcp")] == 1
        summary = barrier.summary()
        assert summary["by_vlan_protocol"]["vlan7/dns"] == 2
        assert summary["quarantined"] == 3

    def test_unattributable_errors_land_on_vlan_zero(self):
        barrier = make_barrier()
        barrier.record(ParseError("shim", "bad magic"), data=b"q")
        assert barrier.counts[(0, "shim")] == 1

    def test_quarantine_ring_rotates(self):
        barrier = make_barrier(quarantine_max_frames=3)
        for index in range(5):
            barrier.record(ParseError("udp", "short"), vlan=1,
                           data=bytes([index]))
        assert len(barrier.quarantine) == 3
        assert barrier.quarantine_rotated == 2
        # Oldest rotated out; newest retained.
        kept = [entry.frame.to_bytes() for entry in barrier.quarantine]
        assert kept == [b"\x02", b"\x03", b"\x04"]

    def test_default_quarantine_bound(self):
        assert make_barrier().quarantine_max_frames == DEFAULT_QUARANTINE_MAX

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            make_barrier(policy="shrug")
        assert "isolate" in POLICIES and "fail-stop" in POLICIES

    def test_fail_stop_latches_on_first_error(self):
        barrier = make_barrier(policy="fail-stop")
        assert not barrier.fail_stopped
        barrier.record(ParseError("ethernet", "runt"), vlan=2, data=b"r")
        assert barrier.fail_stopped
        barrier.note_failstop_drop()
        assert barrier.summary()["failstop_drops"] == 1

    def test_export_quarantine_writes_raw_bytes(self, tmp_path):
        barrier = make_barrier()
        barrier.record(ParseError("ethernet", "runt"), vlan=3,
                       data=GARBAGE)
        path = tmp_path / "quarantine.pcap"
        barrier.export_quarantine(str(path))
        blob = path.read_bytes()
        # Classic pcap magic, and the offending bytes verbatim —
        # malformed frames must round-trip to disk unmodified.
        assert struct.unpack("!I", blob[:4])[0] == 0xA1B2C3D4
        assert GARBAGE in blob


class TestRouterBarrier:
    def make_farm(self, **config):
        farm = Farm(FarmConfig(seed=3, **config))
        return farm, farm.create_subfarm("s")

    def test_ingest_wire_garbage_is_absorbed(self):
        farm, sub = self.make_farm()
        sub.router.ingest_wire(5, GARBAGE)
        farm.run(until=1.0)  # event loop survives
        barrier = sub.router.barrier
        assert barrier.counts[(5, "ipv4")] == 1
        assert len(barrier.quarantine) == 1

    def test_fail_stop_policy_stops_the_subfarm(self):
        farm, sub = self.make_farm(malice_policy="fail-stop")
        sub.router.ingest_wire(5, GARBAGE)
        assert sub.router.barrier.fail_stopped
        # Subsequent traffic — even well-formed — is dropped, not parsed.
        sub.router.ingest_wire(5, GARBAGE)
        assert sub.router.barrier.parse_errors == 1
        assert sub.router.barrier.failstop_drops == 1

    def test_config_controls_quarantine_bound(self):
        farm, sub = self.make_farm(quarantine_max_frames=2)
        for index in range(4):
            sub.router.ingest_wire(5, GARBAGE + bytes([index]))
        barrier = sub.router.barrier
        assert len(barrier.quarantine) == 2
        assert barrier.quarantine_rotated == 2

    def test_containment_server_shares_the_barrier(self):
        farm, sub = self.make_farm()
        assert sub.containment_server.barrier is sub.router.barrier

    def test_telemetry_binds_only_on_error(self):
        farm = Farm(FarmConfig(seed=3, telemetry=True))
        sub = farm.create_subfarm("s")
        clean = farm.telemetry_snapshot()
        assert not any("barrier" in key for key in clean["counters"])
        sub.router.ingest_wire(5, GARBAGE)
        dirty = farm.telemetry_snapshot()
        key = "barrier.parse_errors{protocol=ipv4,subfarm=s,vlan=5}"
        assert dirty["counters"][key] == 1.0


class TestConfigKnobs:
    def test_round_trip(self):
        config = FarmConfig(seed=1, malice_policy="fail-stop",
                            quarantine_max_frames=16)
        restored = FarmConfig.from_dict(config.to_dict())
        assert restored.malice_policy == "fail-stop"
        assert restored.quarantine_max_frames == 16

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            FarmConfig(seed=1, malice_policy="ignore")


class TestReporting:
    def test_malformed_traffic_section(self):
        from repro.reporting.report import ActivityReport, render_report

        farm = Farm(FarmConfig(seed=3))
        sub = farm.create_subfarm("s")
        sub.router.ingest_wire(5, GARBAGE)
        farm.run(until=1.0)
        rendered = render_report(ActivityReport.from_subfarms([sub]))
        assert "Malformed traffic" in rendered
        assert "vlan5/ipv4" in rendered

    def test_clean_run_has_no_malformed_section(self):
        from repro.reporting.report import ActivityReport, render_report

        farm = Farm(FarmConfig(seed=3))
        sub = farm.create_subfarm("s")
        farm.run(until=1.0)
        rendered = render_report(ActivityReport.from_subfarms([sub]))
        assert "Malformed traffic" not in rendered
