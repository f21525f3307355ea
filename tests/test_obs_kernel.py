"""The telemetry kernel: metrics and exporters.

Covers the zero-dependency obs layer in isolation — counters, gauges
and histogram quantiles; label-cardinality capping; and the JSON
exporter round-trip (schema ``gq.telemetry/2``).
"""

from __future__ import annotations

import json

import pytest

from repro.obs.export import SNAPSHOT_SCHEMA, snapshot, render_text, to_json
from repro.obs.metrics import (
    NULL_INSTRUMENT,
    OVERFLOW_KEY,
    Counter,
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
        flows = telemetry.counter("flows", "flows by verdict")
        flows.inc(verdict="FORWARD")
        flows.inc(3, verdict="DROP")
        flows.inc(verdict="DROP")
        assert flows.value(verdict="FORWARD") == 1
        assert flows.value(verdict="DROP") == 4
        assert flows.value(verdict="REWRITE") == 0
        assert flows.total() == 5

    def test_bound_cell_shares_state_with_labeled_calls(self):
        telemetry = Telemetry()
        metric = telemetry.counter("hits")
        cell = metric.bind(subfarm="a")
        cell.inc()
        metric.inc(subfarm="a")
        assert metric.value(subfarm="a") == 2

    def test_registered_read_is_evaluated_at_export(self):
        """A component that keeps its own count registers a read of it
        once; the exporter (and ``value`` / ``total``) evaluates it, as
        a float whatever the component counts in."""
        telemetry = Telemetry(clock=lambda: 3.0)
        counts = {"frames": 0}
        frames = telemetry.counter("frames", "frames seen")
        frames.register(lambda: counts["frames"], subfarm="a")
        frames.inc(2, subfarm="b")
        telemetry.gauge("occupancy").register(lambda: len(counts))
        assert snapshot(telemetry)["counters"]["frames{subfarm=a}"] == 0.0
        counts["frames"] += 41
        counts["bytes"] = 7
        snap = snapshot(telemetry)
        assert snap["counters"] == {"frames{subfarm=a}": 41.0,
                                    "frames{subfarm=b}": 2.0}
        assert type(snap["counters"]["frames{subfarm=a}"]) is float
        assert snap["gauges"] == {"occupancy": 2.0}
        assert frames.value(subfarm="a") == 41 and frames.total() == 43
        assert frames.bind(subfarm="a").value == 41
        assert NULL_INSTRUMENT.register(lambda: 1, subfarm="a") is None

    def test_gauge_set_inc_dec(self):
        telemetry = Telemetry()
        depth = telemetry.gauge("depth")
        depth.set(10)
        depth.inc(5)
        depth.dec(2)
        assert depth.value() == 13

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
        latency = telemetry.histogram("latency")
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
        h = Histogram("empty")
        assert h.quantile(0.99) == 0.0
        assert h.summary()["count"] == 0

    def test_label_cardinality_overflow(self):
        metric = Counter("wild", max_cardinality=4)
        for i in range(10):
            metric.inc(label=str(i))
        cells = metric.cells()
        # The cap holds: 4 distinct cells plus the single overflow cell.
        assert len(cells) == 5
        assert OVERFLOW_KEY in cells
        assert cells[OVERFLOW_KEY].value == 6
        assert metric.total() == 10

    def test_format_key(self):
        metric = Counter("m")
        metric.inc(b="2", a="1")
        (key,) = metric.cells()
        assert format_key("m", key) == "m{a=1,b=2}"
        assert format_key("m", ()) == "m"

    def test_null_instrument_is_inert(self):
        cell = NULL_INSTRUMENT.bind(subfarm="x")
        assert cell is NULL_INSTRUMENT
        cell.inc()
        cell.dec()
        cell.set(5)
        cell.observe(1.0)
        assert cell.value() == 0.0
        assert cell.total() == 0.0
        assert cell.quantile(0.99) == 0.0


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
class TestExport:
    def _populated(self):
        clock = FakeClock(42.0)
        telemetry = Telemetry(clock=clock)
        telemetry.counter("flows").inc(verdict="DROP")
        telemetry.gauge("depth").set(7)
        hist = telemetry.histogram("rtt")
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
