"""Streaming trace analysis (the Bro model, §6.5).

A subfarm's inmate-side trace stores no frame unless a reader sets its
``store`` to True before the run: observers read it as a stream, each
handed one record around the captured frame itself.  The upstream
trace stores every frame.  Reading ``records`` of a trace that let a
frame go by unstored raises :class:`~repro.net.capture.TraceRotated`
rather than hand back part of the run.
"""

from __future__ import annotations

import pytest

from repro.core.policy import ReflectAll
from repro.farm import Farm, FarmConfig
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
    def test_observers_see_rotated_records(self):
        """Frames that go by unstored (the store switched off after 5)
        still reach every observer."""
        trace = PacketTrace()
        seen = []
        trace.subscribe(lambda record: seen.append(record.timestamp))
        for i in range(20):
            if i == 5:
                trace.store = False
            trace.capture(float(i), dummy_frame(i))
        assert len(seen) == 20, "observers must see everything"
        assert (len(trace.records), trace.rotated_out) == (5, 15)


class TestStoreOff:
    def test_inmate_side_stores_nothing_upstream_whole(self):
        farm = Farm(FarmConfig(seed=1))
        sub = farm.create_subfarm("store-off")
        assert not sub.router.trace.store
        assert farm.gateway.upstream_trace.store

    def test_a_default_run_streams_what_a_stored_trace_reads(
            self, store_off_and_stored):
        """Two runs of one seed: the default, streamed and storing
        nothing, and one that stores every frame, replayed into fresh
        analyzers after the run.  The reports agree."""
        default, stored = store_off_and_stored
        sub, fetched, (shims, smtp) = default["sub"], default["fetched"], \
            default["streams"]
        assert len(fetched) > 600
        trace = sub.router.trace
        assert len(trace) == 0 and not trace._payloads
        # Every capture counted, and refused to a reader of records.
        assert trace.rotated_out == len(stored["sub"].router.trace) > 0
        with pytest.raises(TraceRotated):
            list(trace.records)
        assert stored["sub"].router.trace.rotated_out == 0
        replayed_shims, replayed_smtp = replayed(stored["sub"].router.trace)
        assert shims.groups == replayed_shims.groups
        assert sum(shims.verdict_counts().values()) == len(fetched)
        assert (shims.parse_errors, shims._pending) == (0, {})
        assert smtp.sessions == replayed_smtp.sessions
        assert rendered(sub, shims, smtp) == rendered(
            stored["sub"], replayed_shims, replayed_smtp)

    def test_scheduled_reports_match_a_stored_trace(
            self, store_off_and_stored):
        """The hourly/daily scheduler streams its subfarms: each firing
        renders what a replay of the stored trace renders at the same
        instant, though the default trace stored nothing."""
        default, stored = store_off_and_stored
        reports = default["scheduler"].reports
        assert [t for t, _rendered in reports] == [100.0, 200.0, 300.0]
        assert reports == stored["reports"]
        rotated = [r for r, _totals in default["fired"]]
        assert 0 < rotated[0] < rotated[-1]
        forwarded = [totals["FORWARD"] for _r, totals in default["fired"]]
        assert forwarded == sorted(forwarded) and forwarded[0] > 0


@pytest.fixture(scope="module")
def store_off_and_stored():
    """One seed run twice for 310 s: by default, with streaming
    analyzers and a report scheduler every 100 s; and storing every
    inmate-side frame, replayed and rendered at the same instants."""
    def run(store):
        farm, fetched = churn_farm(seed=11, subfarms=1, inmates_per=6,
                                   stop=300.0)
        (sub,) = farm.subfarms.values()
        out = {"sub": sub, "fetched": fetched}
        if store:
            sub.router.trace.store = True
            out["reports"] = []

            def replay():
                now = farm.sim.now
                out["reports"].append((now, rendered(
                    sub, *replayed(sub.router.trace),
                    title=f"Inmate Activity (t={now:.0f}s)")))

            Process(farm.sim, 100.0, replay, label="replay").start()
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

    return run(store=False), run(store=True)


class TestObservers:
    def test_no_record_is_built_without_an_observer(self):
        """A capture with nobody subscribed builds no record (with
        observers it builds no record from the row either:
        tests/test_capture_budget.py)."""
        trace = PacketTrace()
        frame = dummy_frame(0, sport=40000, dport=25)

        def capture(count):
            for index in range(count):
                trace.capture(index * 0.001, frame, point="inmate")

        calls = python_calls(lambda: capture(1000))
        assert calls[("capture.py", "_build")] == 0
        assert calls[("capture.py", "capture")] == 1000
        assert len(trace) == 1000


def replayed(trace):
    """Fresh analyzers fed every frame a trace stored, in order."""
    shims, smtp = ShimAnalyzer(), SmtpActivityAnalyzer()
    for record in trace.records:
        shims.process(record)
        smtp.process(record)
    return shims, smtp


def rendered(sub, shims, smtp, title="Inmate Activity"):
    report = ActivityReport(title)
    report.add_subfarm(sub, shims, smtp)
    return render_report(report)


class TestStreamingEqualsPostHoc:
    def test_identical_results_on_the_same_run(self):
        """The live frames the analyzers streamed and the packed rows
        the trace stored of the same run read the same."""
        farm = Farm(FarmConfig(seed=161))
        sub = farm.create_subfarm("stream")
        sub.add_catchall_sink()
        sub.router.trace.store = True  # replayed below
        streaming_shims = ShimAnalyzer.streaming(sub.router.trace)
        streaming_smtp = SmtpActivityAnalyzer.streaming(sub.router.trace)
        image, _results = http_fetch_image()
        sub.create_inmate(image_factory=image, policy=ReflectAll())
        farm.run(until=120)

        assert sub.router.trace.rotated_out == 0
        posthoc_shims, posthoc_smtp = replayed(sub.router.trace)
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
        """Every reader of the stored frames of a trace that stored
        nothing (the default) or was switched off mid-run raises,
        naming the trace and the remedy."""
        for switch_off_at in (None, 31.0):  # after DHCP, before the fetch
            farm = Farm(FarmConfig(seed=162))
            sub = farm.create_subfarm("stream")
            sub.add_catchall_sink()
            trace = sub.router.trace
            streaming = ShimAnalyzer.streaming(trace)
            if switch_off_at is not None:
                trace.store = True
                farm.sim.schedule_at(switch_off_at,
                                     lambda: setattr(trace, "store", False))
            image, _results = http_fetch_image()
            sub.create_inmate(image_factory=image, policy=ReflectAll())
            farm.run(until=120)

            assert streaming.verdict_counts().get("REFLECT", 0) == 1
            rotated = trace.rotated_out
            assert rotated > 0
            assert (len(trace) > 0) == (switch_off_at is not None)
            readers = [lambda: replayed(trace),
                       lambda: sub.export_traces(str(tmp_path))]
            for read in readers:
                with pytest.raises(TraceRotated) as raised:
                    read()
                error = raised.value
                assert (error.trace, error.rotated_out) == (
                    trace.name, rotated)
                assert "store = True" in str(error)
                assert "subscribe an observer" in str(error)
            assert not list(tmp_path.iterdir()), "no partial pcap is written"
            # With its streams, the report is built as before.
            report = ActivityReport()
            report.add_subfarm(sub, streaming, SmtpActivityAnalyzer())
            assert report.verdict_totals() == {"REFLECT": 1}
