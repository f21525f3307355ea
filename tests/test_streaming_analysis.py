"""Streaming trace analysis and rotation (the Bro model, §6.5)."""

from __future__ import annotations

import pytest

from repro.core.policy import ReflectAll
from repro.farm import Farm, FarmConfig
from repro.net.capture import PacketTrace
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.packet import EthernetFrame, IPv4Packet, SYN, TCPSegment
from repro.reporting.analyzer import ShimAnalyzer, SmtpActivityAnalyzer
from repro.reporting.report import ActivityReport, render_report
from tests.test_containment_end_to_end import http_fetch_image

pytestmark = pytest.mark.integration


def dummy_frame(i):
    return EthernetFrame(
        MacAddress("02:00:00:00:00:01"), MacAddress("02:00:00:00:00:02"),
        IPv4Packet(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
                   TCPSegment(1000 + i, 80, flags=SYN)),
        vlan=5,
    )


class TestTraceRotation:
    def test_capped_trace_rotates_oldest(self):
        trace = PacketTrace(max_records=10)
        for i in range(25):
            trace.capture(float(i), dummy_frame(i), point="inmate")
        assert len(trace.records) == 10
        assert trace.rotated_out == 15
        assert trace.records[0].timestamp == 15.0

    def test_observers_see_rotated_records(self):
        trace = PacketTrace(max_records=5)
        seen = []
        trace.subscribe(lambda record: seen.append(record.timestamp))
        for i in range(20):
            trace.capture(float(i), dummy_frame(i))
        assert len(seen) == 20, "observers must see everything"
        assert len(trace.records) == 5


def rendered(sub, shims, smtp):
    report = ActivityReport()
    report.add_subfarm(sub, shims=shims, smtp=smtp)
    return render_report(report)


class TestStreamingEqualsPostHoc:
    def test_identical_results_on_the_same_run(self):
        farm = Farm(FarmConfig(seed=161))
        sub = farm.create_subfarm("stream")
        sub.add_catchall_sink()
        streaming_shims = ShimAnalyzer.streaming(sub.router.trace)
        streaming_smtp = SmtpActivityAnalyzer.streaming(sub.router.trace)
        image, _results = http_fetch_image()
        sub.create_inmate(image_factory=image, policy=ReflectAll())
        farm.run(until=120)

        posthoc_shims = ShimAnalyzer(sub.router.trace)
        posthoc_smtp = SmtpActivityAnalyzer(sub.router.trace)
        assert streaming_shims.groups == posthoc_shims.groups
        assert streaming_shims.groups, "the run must contain flows"
        assert streaming_shims.policies == posthoc_shims.policies
        assert (streaming_shims.verdict_counts()
                == posthoc_shims.verdict_counts())
        assert (streaming_shims.parse_errors, streaming_shims._pending) \
            == (posthoc_shims.parse_errors, posthoc_shims._pending)
        assert streaming_smtp.sessions == posthoc_smtp.sessions
        # The report's order (ties sorted by count keep arrival order)
        # agrees too.
        assert rendered(sub, streaming_shims, streaming_smtp) \
            == rendered(sub, posthoc_shims, posthoc_smtp)

    def test_streaming_survives_rotation_posthoc_does_not(self):
        farm = Farm(FarmConfig(seed=162))
        sub = farm.create_subfarm("stream")
        sub.add_catchall_sink()
        streaming = ShimAnalyzer.streaming(sub.router.trace)
        sub.router.trace.max_records = 5  # brutal rotation
        image, _results = http_fetch_image()
        sub.create_inmate(image_factory=image, policy=ReflectAll())
        farm.run(until=120)

        assert streaming.verdict_counts().get("REFLECT", 0) == 1
        assert sub.router.trace.rotated_out > 0
