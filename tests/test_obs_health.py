"""Live telemetry health rules (§6.5 operator's eyes, metric-driven).

The report-based rules are covered in test_report_health.py; these
tests exercise the three telemetry rules — safety-filter trip rate,
shim-verdict p99 latency, NAT pool exhaustion — and the no-telemetry
fallback (rules silently skipped, report rules unaffected).
"""

from __future__ import annotations

import pytest

from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.reporting.health import HealthChecker
from repro.reporting.report import ActivityReport

pytestmark = pytest.mark.obs


def empty_report():
    report = ActivityReport()
    report.subfarms["sf"] = {}
    return report


def checks_of(warnings):
    return [w.check for w in warnings]


class TestSafetyTripRate:
    def _telemetry(self, admitted, tripped):
        telemetry = Telemetry(clock=lambda: 0.0)
        telemetry.counter("gw.safety.admitted").register(
            lambda: admitted, subfarm="sf")
        telemetry.counter("gw.safety.trips").register(
            lambda: tripped, subfarm="sf", reason="per-inmate")
        return telemetry

    def test_trips_over_threshold_flagged(self):
        checker = HealthChecker(expect_activity=False,
                                max_safety_trip_fraction=0.05)
        warnings = checker.check(empty_report(),
                                 telemetry=self._telemetry(90, 10))
        assert checks_of(warnings) == ["safety-trip-rate"]
        assert warnings[0].severity == "critical"
        assert warnings[0].subfarm == "sf"

    def test_trips_under_threshold_clean(self):
        checker = HealthChecker(expect_activity=False,
                                max_safety_trip_fraction=0.05)
        warnings = checker.check(empty_report(),
                                 telemetry=self._telemetry(99, 1))
        assert warnings == []


class TestShimLatency:
    def test_slow_p99_flagged(self):
        telemetry = Telemetry(clock=lambda: 0.0)
        rtt = telemetry.histogram("router.shim.rtt").bind(subfarm="sf")
        for _ in range(100):
            rtt.observe(5.0)
        checker = HealthChecker(expect_activity=False, max_shim_p99=2.0)
        warnings = checker.check(empty_report(), telemetry=telemetry)
        assert checks_of(warnings) == ["shim-latency"]
        assert warnings[0].severity == "warn"

    def test_fast_p99_clean(self):
        telemetry = Telemetry(clock=lambda: 0.0)
        rtt = telemetry.histogram("router.shim.rtt").bind(subfarm="sf")
        for _ in range(100):
            rtt.observe(0.05)
        checker = HealthChecker(expect_activity=False, max_shim_p99=2.0)
        assert checker.check(empty_report(), telemetry=telemetry) == []


class TestNatExhaustion:
    def _telemetry(self, used, capacity):
        telemetry = Telemetry(clock=lambda: 0.0)
        telemetry.gauge("gw.nat.pool.used").register(
            lambda: used, subfarm="sf")
        telemetry.gauge("gw.nat.pool.capacity").register(
            lambda: capacity, subfarm="sf")
        return telemetry

    def test_nearly_exhausted_pool_flagged(self):
        checker = HealthChecker(expect_activity=False,
                                max_nat_utilization=0.9)
        warnings = checker.check(empty_report(),
                                 telemetry=self._telemetry(95, 100))
        assert checks_of(warnings) == ["nat-exhaustion"]
        assert warnings[0].severity == "critical"

    def test_roomy_pool_clean(self):
        checker = HealthChecker(expect_activity=False,
                                max_nat_utilization=0.9)
        assert checker.check(empty_report(),
                             telemetry=self._telemetry(10, 100)) == []


class TestFallback:
    def test_no_telemetry_skips_live_rules(self):
        # Report rules still fire; the live rules never run.
        checker = HealthChecker(expect_activity=True)
        warnings = checker.check(empty_report())
        assert checks_of(warnings) == ["no-activity"]

    def test_disabled_telemetry_skips_live_rules(self):
        checker = HealthChecker(expect_activity=True)
        warnings = checker.check(empty_report(), telemetry=NULL_TELEMETRY)
        assert checks_of(warnings) == ["no-activity"]

    def test_enabled_but_empty_registry_is_clean(self):
        checker = HealthChecker(expect_activity=False)
        telemetry = Telemetry(clock=lambda: 0.0)
        assert checker.check(empty_report(), telemetry=telemetry) == []
