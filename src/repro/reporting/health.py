"""Containment health checks over activity reports (§6.5).

"The reports break down activity by subfarm, inmate, and containment
decision, allowing us to verify that the gateway enforces these
decisions as expected (for example, an unusual number of FORWARD
verdicts might indicate a bug in the policy, and absence of any C&C
REWRITEs would indicate lack of botnet activity)."

These are the operator's eyes: mechanical anomaly rules over the
Figure 7 aggregates, producing warnings a human triages.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.verdicts import Verdict
from repro.reporting.report import ActivityReport, InmateActivity


class HealthWarning:
    """One anomaly the checker wants a human to look at."""

    __slots__ = ("severity", "subfarm", "vlan", "check", "message")

    def __init__(self, severity: str, subfarm: str, vlan: Optional[int],
                 check: str, message: str) -> None:
        self.severity = severity  # "warn" | "critical"
        self.subfarm = subfarm
        self.vlan = vlan
        self.check = check
        self.message = message

    def __repr__(self) -> str:
        where = f"vlan {self.vlan}" if self.vlan is not None else "subfarm"
        return (f"<{self.severity.upper()} [{self.check}] "
                f"{self.subfarm}/{where}: {self.message}>")


class HealthChecker:
    """Anomaly rules over one report.

    Parameters
    ----------
    max_forward_fraction:
        FORWARD verdicts above this fraction of an inmate's flows are
        suspicious — C&C lifelines are narrow, so a forward-heavy mix
        usually means a policy bug.
    expect_activity:
        Inmates with zero contained flows are flagged (dead specimen,
        broken infection, or policy that kills everything).
    max_safety_trip_fraction / max_shim_p99 / max_nat_utilization:
        Thresholds for the live (telemetry-driven) rules; they apply
        only when :meth:`check` is handed an enabled telemetry domain.
    """

    def __init__(self, max_forward_fraction: float = 0.25,
                 expect_activity: bool = True,
                 expect_autoinfection: bool = False,
                 max_safety_trip_fraction: float = 0.05,
                 max_shim_p99: float = 2.0,
                 max_nat_utilization: float = 0.9) -> None:
        self.max_forward_fraction = max_forward_fraction
        self.expect_activity = expect_activity
        self.expect_autoinfection = expect_autoinfection
        self.max_safety_trip_fraction = max_safety_trip_fraction
        self.max_shim_p99 = max_shim_p99
        self.max_nat_utilization = max_nat_utilization

    def check(self, report: ActivityReport,
              telemetry=None) -> List[HealthWarning]:
        warnings: List[HealthWarning] = []
        for subfarm_name, inmates in report.subfarms.items():
            if not inmates and self.expect_activity:
                warnings.append(HealthWarning(
                    "warn", subfarm_name, None, "no-activity",
                    "no contained flows at all — are the inmates up?"))
            for vlan, activity in inmates.items():
                warnings.extend(self._check_inmate(subfarm_name, vlan,
                                                   activity))
        # Live rules over the telemetry domain: skipped entirely when
        # no telemetry was passed or the domain is disabled.
        if telemetry is not None and telemetry.enabled:
            warnings.extend(self._check_live(telemetry))
        return warnings

    # ------------------------------------------------------------------
    # Live telemetry rules
    # ------------------------------------------------------------------
    @staticmethod
    def _by_subfarm(metric) -> dict:
        """Aggregate a metric's cells by their ``subfarm`` label."""
        out: dict = {}
        if metric is None:
            return out
        for key, cell in metric.cells().items():
            labels = dict(key)
            out.setdefault(labels.get("subfarm", ""), []).append(cell)
        return out

    def _check_live(self, telemetry) -> List[HealthWarning]:
        warnings: List[HealthWarning] = []

        # Rule 1: safety-filter trip rate — a tripping filter means an
        # inmate is being actively rate-limited (flooder, scan storm).
        trips = self._by_subfarm(telemetry.get("gw.safety.trips"))
        admitted = self._by_subfarm(telemetry.get("gw.safety.admitted"))
        for subfarm, cells in trips.items():
            tripped = sum(c.value for c in cells)
            total = tripped + sum(
                c.value for c in admitted.get(subfarm, []))
            if total and tripped / total > self.max_safety_trip_fraction:
                warnings.append(HealthWarning(
                    "critical", subfarm, None, "safety-trip-rate",
                    f"{tripped:.0f}/{total:.0f} flows tripped the safety "
                    f"filter ({tripped / total:.0%}) — flooder loose?"))

        # Rule 2: shim round-trip p99 — a slow verdict path stalls
        # every new flow in the subfarm behind the containment server.
        rtt = telemetry.get("router.shim.rtt")
        if rtt is not None:
            for key, cell in rtt.cells().items():
                if cell.count == 0:
                    continue
                p99 = cell.quantile(0.99)
                if p99 > self.max_shim_p99:
                    subfarm = dict(key).get("subfarm", "")
                    warnings.append(HealthWarning(
                        "warn", subfarm, None, "shim-latency",
                        f"shim verdict p99 {p99:.3f}s exceeds "
                        f"{self.max_shim_p99:.3f}s — CS overloaded?"))

        # Rule 3: NAT pool exhaustion — no free global addresses means
        # new inmates cannot come up at all.
        used = self._by_subfarm(telemetry.get("gw.nat.pool.used"))
        capacity = self._by_subfarm(telemetry.get("gw.nat.pool.capacity"))
        for subfarm, cells in used.items():
            in_use = sum(c.value for c in cells)
            cap = sum(c.value for c in capacity.get(subfarm, []))
            if cap and in_use / cap > self.max_nat_utilization:
                warnings.append(HealthWarning(
                    "critical", subfarm, None, "nat-exhaustion",
                    f"global address pool {in_use:.0f}/{cap:.0f} used "
                    f"({in_use / cap:.0%}) — inmates will fail to bind"))
        return warnings

    def _check_inmate(self, subfarm: str, vlan: int,
                      activity: InmateActivity) -> List[HealthWarning]:
        warnings: List[HealthWarning] = []
        total = sum(activity.verdict_total(v) for v in activity.groups)
        forwards = sum(
            count for verdict, bucket in activity.groups.items()
            if Verdict.from_label(verdict).grants_world
            for count in bucket.values()
        )
        if total and forwards / total > self.max_forward_fraction:
            warnings.append(HealthWarning(
                "critical", subfarm, vlan, "forward-heavy",
                f"{forwards}/{total} flows FORWARDed "
                f"({forwards / total:.0%}) — policy bug?"))
        if self.expect_autoinfection:
            rewrites = activity.groups.get("REWRITE", {})
            if not any("autoinfection" in annotation
                       for (annotation, _t, _p) in rewrites):
                warnings.append(HealthWarning(
                    "warn", subfarm, vlan, "no-autoinfection",
                    "no auto-infection REWRITE observed — sample never "
                    "delivered?"))
        if activity.blacklisted:
            warnings.append(HealthWarning(
                "critical", subfarm, vlan, "blacklisted",
                f"global address {activity.global_ip} is LISTED — "
                f"containment failure"))
        if total == 0 and self.expect_activity:
            warnings.append(HealthWarning(
                "warn", subfarm, vlan, "silent-inmate",
                "inmate produced no contained flows"))
        return warnings
