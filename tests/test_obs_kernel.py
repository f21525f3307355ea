"""The telemetry kernel: metrics and exporters.

Covers the zero-dependency obs layer in isolation — counters and
gauges read from the components that count, histogram quantiles;
label-cardinality capping; and the JSON exporter round-trip (schema
``gq.telemetry/2``).
"""

from __future__ import annotations

import json

import pytest

from repro.obs.export import SNAPSHOT_SCHEMA, snapshot, render_text, to_json
from repro.obs.metrics import (
    NULL_INSTRUMENT,
    OVERFLOW_KEY,
    Counter,
    Gauge,
    Histogram,
    format_key,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry

pytestmark = pytest.mark.obs


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_labels_and_totals(self):
        telemetry = Telemetry()
        counts = {"FORWARD": 1, "DROP": 4}
        flows = telemetry.counter("flows", "flows by verdict")
        for verdict in counts:
            flows.register(lambda verdict=verdict: counts[verdict],
                           verdict=verdict)
        assert snapshot(telemetry)["counters"] == {
            "flows{verdict=DROP}": 4.0, "flows{verdict=FORWARD}": 1.0}
        assert sum(cell.value for cell in flows.cells().values()) == 5

    def test_reads_sharing_a_label_set_add_up(self):
        """Two components counting the same identity (two sinks, one
        resolver per subfarm) each register a read; the value is the
        sum."""
        telemetry = Telemetry()
        first, second = [3], [4]
        metric = telemetry.counter("hits")
        metric.register(lambda: first[0], subfarm="a")
        metric.register(lambda: second[0], subfarm="a")
        assert snapshot(telemetry)["counters"] == {"hits{subfarm=a}": 7.0}
        second[0] += 1
        assert snapshot(telemetry)["counters"] == {"hits{subfarm=a}": 8.0}

    def test_registered_read_is_evaluated_at_export(self):
        """A component that keeps its own count registers a read of it
        once; the exporter evaluates it, a counter as a float whatever
        the component counts in."""
        telemetry = Telemetry(clock=lambda: 3.0)
        counts = {"frames": 0}
        frames = telemetry.counter("frames", "frames seen")
        frames.register(lambda: counts["frames"], subfarm="a")
        assert snapshot(telemetry)["counters"] == {"frames{subfarm=a}": 0.0}
        counts["frames"] += 41
        snap = snapshot(telemetry)
        assert snap["counters"] == {"frames{subfarm=a}": 41.0}
        assert type(snap["counters"]["frames{subfarm=a}"]) is float
        assert NULL_INSTRUMENT.register(lambda: 1, subfarm="a") is None

    def test_gauge_exports_what_its_read_returns(self):
        """A gauge is not coerced: an int read exports as an int, as the
        NAT gauges and the queue depth always have."""
        telemetry = Telemetry()
        depth = [10]
        telemetry.gauge("depth").register(lambda: depth[0])
        telemetry.gauge("ratio").register(lambda: depth[0] / 4)
        assert json.dumps(snapshot(telemetry)["gauges"]) == \
            '{"depth": 10, "ratio": 2.5}'

    def test_only_histograms_are_pushed(self):
        for kind in (Counter, Gauge):
            for pushed in ("inc", "dec", "set", "bind", "observe",
                           "value", "total"):
                assert not hasattr(kind, pushed), (kind, pushed)
        cell = Histogram("h").bind(subfarm="a")
        cell.observe(1.0)
        assert cell.count == 1

    def test_registry_get_or_create_and_kind_mismatch(self):
        telemetry = Telemetry()
        a = telemetry.counter("x")
        assert telemetry.counter("x") is a
        assert telemetry.get("x") is a
        assert telemetry.get("missing") is None
        with pytest.raises(TypeError):
            telemetry.gauge("x")

    def test_histogram_quantiles(self):
        telemetry = Telemetry()
        latency = telemetry.histogram("latency").bind()
        for ms in range(1, 101):
            latency.observe(ms / 1000.0)
        assert latency.quantile(0.0) == pytest.approx(0.001)
        assert latency.quantile(1.0) == pytest.approx(0.100)
        # Interpolated quantiles stay within the observed range and
        # are monotone.
        p50 = latency.quantile(0.50)
        p95 = latency.quantile(0.95)
        p99 = latency.quantile(0.99)
        assert 0.001 <= p50 <= p95 <= p99 <= 0.100
        assert p50 == pytest.approx(0.050, abs=0.01)
        summary = latency.summary()
        assert summary["count"] == 100
        assert summary["sum"] == pytest.approx(5.05)
        assert summary["min"] == pytest.approx(0.001)
        assert summary["max"] == pytest.approx(0.100)

    def test_histogram_empty_quantile_is_zero(self):
        h = Histogram("empty").bind()
        assert h.quantile(0.99) == 0.0
        assert h.summary()["count"] == 0

    def test_label_cardinality_overflow(self):
        metric = Counter("wild", max_cardinality=4)
        for i in range(10):
            metric.register(lambda: 1, label=str(i))
        cells = metric.cells()
        # The cap holds: 4 distinct cells plus the single overflow cell.
        assert len(cells) == 5
        assert OVERFLOW_KEY in cells
        assert cells[OVERFLOW_KEY].value == 6
        assert sum(cell.value for cell in cells.values()) == 10

    def test_format_key(self):
        metric = Counter("m")
        metric.register(lambda: 1, b="2", a="1")
        (key,) = metric.cells()
        assert format_key("m", key) == "m{a=1,b=2}"
        assert format_key("m", ()) == "m"

    def test_null_instrument_is_inert(self):
        cell = NULL_INSTRUMENT.bind(subfarm="x")
        assert cell is NULL_INSTRUMENT
        assert cell.register(lambda: 1, subfarm="x") is None
        assert cell.observe(1.0) is None
        for pushed in ("inc", "dec", "set", "value", "total"):
            assert not hasattr(cell, pushed), pushed


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
class TestExport:
    def _populated(self):
        clock = FakeClock(42.0)
        telemetry = Telemetry(clock=clock)
        telemetry.counter("flows").register(lambda: 1, verdict="DROP")
        telemetry.gauge("depth").register(lambda: 7)
        hist = telemetry.histogram("rtt").bind()
        hist.observe(0.01)
        hist.observe(0.02)
        clock.now = 43.0
        return telemetry

    def test_json_round_trip(self):
        telemetry = self._populated()
        text = to_json(telemetry)
        parsed = json.loads(text)
        assert parsed == snapshot(telemetry)
        assert parsed["schema"] == SNAPSHOT_SCHEMA == "gq.telemetry/2"
        assert sorted(parsed) == ["counters", "enabled", "gauges",
                                  "histograms", "schema", "time"]
        assert parsed["enabled"] is True
        assert parsed["time"] == 43.0
        assert parsed["counters"]["flows{verdict=DROP}"] == 1
        assert parsed["gauges"]["depth"] == 7
        entry = parsed["histograms"]["rtt"]
        assert entry["count"] == 2
        assert entry["p50"] > 0
        assert all(count > 0 for _bound, count in entry["buckets"])

    def test_json_deterministic(self):
        a, b = self._populated(), self._populated()
        assert to_json(a) == to_json(b)

    def test_disabled_snapshot_is_minimal(self):
        snap = snapshot(NULL_TELEMETRY)
        assert snap["enabled"] is False
        assert snap["counters"] == {}
        assert sorted(snap) == sorted(snapshot(Telemetry()))
        assert render_text(NULL_TELEMETRY) == "(telemetry disabled)"

    def test_render_text_sections(self):
        text = render_text(self._populated())
        assert "Counters" in text
        assert "flows{verdict=DROP}" in text
        assert "Gauges" in text
        assert "Histograms" in text
        assert "rtt" in text
