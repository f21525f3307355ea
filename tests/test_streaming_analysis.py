"""Streaming trace analysis and rotation (the Bro model, §6.5).

A subfarm's inmate-side trace is a window of
``SubfarmRouter.TRACE_WINDOW`` frames that observers read as a stream;
the upstream trace is whole.  A reader that needs every frame refuses
a trace that has rotated (:class:`~repro.net.capture.TraceRotated`)
rather than count part of the run.
"""

from __future__ import annotations

import pytest

from repro.core.policy import ReflectAll
from repro.farm import Farm, FarmConfig
from repro.gateway.router import SubfarmRouter
from repro.net.capture import PacketTrace, TraceRotated
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.packet import EthernetFrame, IPv4Packet, SYN, TCPSegment
from repro.reporting.analyzer import ShimAnalyzer, SmtpActivityAnalyzer
from repro.reporting.report import (ActivityReport, ReportScheduler,
                                    render_report)
from repro.sim.process import Process
from tests.helpers import churn_farm, python_calls
from tests.test_containment_end_to_end import http_fetch_image

pytestmark = pytest.mark.integration


def dummy_frame(i, sport=None, dport=80):
    return EthernetFrame(
        MacAddress("02:00:00:00:00:01"), MacAddress("02:00:00:00:00:02"),
        IPv4Packet(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
                   TCPSegment(1000 + i if sport is None else sport, dport,
                              flags=SYN)),
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


class TestTheWindow:
    def test_the_inmate_side_trace_is_a_window_the_upstream_is_whole(self):
        farm = Farm(FarmConfig(seed=1))
        sub = farm.create_subfarm("window")
        assert SubfarmRouter.TRACE_WINDOW == 4096
        assert sub.router.trace.max_records == SubfarmRouter.TRACE_WINDOW
        assert farm.gateway.upstream_trace.max_records is None

    def test_a_run_past_the_window_streams_what_a_whole_trace_reads(
            self, past_the_window):
        """Two runs of one seed: the default window with streaming
        analyzers, and a whole trace read post-hoc.  The window has
        rotated most of the run out; the reports agree."""
        windowed, whole = past_the_window
        sub, fetched, (shims, smtp) = windowed["sub"], windowed["fetched"], \
            windowed["streams"]
        assert len(fetched) > 600
        assert len(sub.router.trace) == SubfarmRouter.TRACE_WINDOW
        assert sub.router.trace.rotated_out > SubfarmRouter.TRACE_WINDOW
        assert whole["sub"].router.trace.rotated_out == 0
        # What the window kept is the tail of the whole trace.
        tail = whole["sub"].router.trace.records[-SubfarmRouter.TRACE_WINDOW:]
        assert [(r.timestamp, r.frame.to_bytes()) for r in tail] == [
            (r.timestamp, r.frame.to_bytes()) for r in sub.router.trace.records]
        posthoc = ShimAnalyzer(whole["sub"].router.trace)
        posthoc_smtp = SmtpActivityAnalyzer(whole["sub"].router.trace)
        assert shims.groups == posthoc.groups
        assert sum(shims.verdict_counts().values()) == len(fetched)
        assert (shims.parse_errors, shims._pending) == (0, {})
        assert smtp.sessions == posthoc_smtp.sessions
        assert rendered(sub, shims, smtp) == rendered(
            whole["sub"], posthoc, posthoc_smtp)

    def test_scheduled_reports_past_the_window_match_a_whole_trace(
            self, past_the_window):
        """The hourly/daily scheduler streams its subfarms: each firing
        renders what a post-hoc read of the whole trace renders at the
        same instant, though the window rotated before the last."""
        windowed, whole = past_the_window
        reports = windowed["scheduler"].reports
        assert [t for t, _rendered in reports] == [100.0, 200.0, 300.0]
        assert reports == whole["reports"]
        rotated = [r for r, _totals in windowed["fired"]]
        assert rotated[0] < rotated[-1] and rotated[-1] > 0
        forwarded = [totals["FORWARD"] for _r, totals in windowed["fired"]]
        assert forwarded == sorted(forwarded) and forwarded[0] > 0
        # A report computed post-hoc from the window refuses instead.
        with pytest.raises(TraceRotated):
            ActivityReport.from_subfarms([windowed["sub"]])


@pytest.fixture(scope="module")
def past_the_window():
    """One seed run twice for 310 s, past the window: with the default
    window, streaming analyzers and a report scheduler every 100 s; and
    with a whole trace, rendered post-hoc at the same instants."""
    def run(whole):
        farm, fetched = churn_farm(seed=11, subfarms=1, inmates_per=6,
                                   stop=300.0)
        (sub,) = farm.subfarms.values()
        out = {"sub": sub, "fetched": fetched}
        if whole:
            sub.router.trace.max_records = None
            out["reports"] = []

            def posthoc():
                now = farm.sim.now
                report = ActivityReport.from_subfarms(
                    [sub], title=f"Inmate Activity (t={now:.0f}s)")
                out["reports"].append((now, render_report(report)))

            Process(farm.sim, 100.0, posthoc, label="posthoc").start()
        else:
            out["streams"] = (ShimAnalyzer.streaming(sub.router.trace),
                              SmtpActivityAnalyzer.streaming(sub.router.trace))
            out["fired"] = []
            out["scheduler"] = ReportScheduler(
                farm.sim, [sub], interval=100.0,
                on_report=lambda _now, report, _rendered: out["fired"].append(
                    (sub.router.trace.rotated_out, report.verdict_totals())))
        farm.run(until=310.0)
        return out

    return run(whole=False), run(whole=True)


class TestObservers:
    def test_no_record_is_built_without_an_observer(self):
        """A capture with nobody subscribed builds no record; with two
        observers it builds one per frame, and both see that one."""
        trace = PacketTrace()
        frame = dummy_frame(0, sport=40000, dport=25)

        def capture(count):
            for index in range(count):
                trace.capture(index * 0.001, frame, point="inmate")

        calls = python_calls(lambda: capture(1000))
        assert calls[("capture.py", "_build")] == 0
        assert calls[("capture.py", "capture")] == 1000
        assert len(trace) == 1000
        seen = []
        trace.subscribe(seen.append)
        trace.subscribe(seen.append)
        calls = python_calls(lambda: capture(10))
        assert calls[("capture.py", "_build")] == 10
        assert len(seen) == 20
        assert all(a is b for a, b in zip(seen[0::2], seen[1::2]))
        assert [r.ip.tcp.dport for r in seen] == [25] * 20


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

        assert sub.router.trace.rotated_out == 0
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

    def test_streaming_survives_rotation_posthoc_does_not(self, tmp_path):
        """Every whole-trace reader of a rotated trace raises, naming
        itself and the remedy, where it used to count what was left."""
        farm = Farm(FarmConfig(seed=162))
        sub = farm.create_subfarm("stream")
        sub.add_catchall_sink()
        streaming = ShimAnalyzer.streaming(sub.router.trace)
        sub.router.trace.max_records = 5  # brutal rotation
        image, _results = http_fetch_image()
        sub.create_inmate(image_factory=image, policy=ReflectAll())
        farm.run(until=120)

        assert streaming.verdict_counts().get("REFLECT", 0) == 1
        rotated = sub.router.trace.rotated_out
        assert rotated > 0
        readers = [
            ("ShimAnalyzer(trace)", lambda: ShimAnalyzer(sub.router.trace)),
            ("SmtpActivityAnalyzer(trace)",
             lambda: SmtpActivityAnalyzer(sub.router.trace)),
            # A report without streams computes them post-hoc.
            ("ShimAnalyzer(trace)",
             lambda: ActivityReport.from_subfarms([sub])),
            ("Subfarm.export_traces",
             lambda: sub.export_traces(str(tmp_path))),
        ]
        for reader, read in readers:
            with pytest.raises(TraceRotated) as raised:
                read()
            error = raised.value
            assert (error.reader, error.trace, error.rotated_out) == (
                reader, sub.router.trace.name, rotated)
            assert "max_records to None" in str(error)
            assert "streaming observer" in str(error)
        assert not list(tmp_path.iterdir()), "no partial pcap is written"
        # With its streams, the report is built as before.
        report = ActivityReport()
        report.add_subfarm(sub, shims=streaming,
                           smtp=SmtpActivityAnalyzer())
        assert report.verdict_totals() == {"REFLECT": 1}
