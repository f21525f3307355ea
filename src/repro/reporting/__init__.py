"""Reporting (§6.5) — the Bro-of-GQ.

A shim-protocol analyzer tracks all containment activity on the
inmate network; an SMTP analyzer tracks attempted and successful
message delivery for spambots; the report generator breaks activity
down by subfarm, inmate, and containment decision (Figure 7) and
cross-checks inmate addresses against blacklists.
"""

from repro.reporting.analyzer import ShimAnalyzer, SmtpActivityAnalyzer
from repro.reporting.health import HealthChecker, HealthWarning
from repro.reporting.report import (
    ActivityReport,
    ReportScheduler,
    render_report,
)

__all__ = [
    "ShimAnalyzer",
    "SmtpActivityAnalyzer",
    "ActivityReport",
    "ReportScheduler",
    "render_report",
    "HealthChecker",
    "HealthWarning",
]
