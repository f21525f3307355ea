"""§6.5 health checks: verifying containment from the reports."""

from __future__ import annotations

import pytest

from repro.core.policy import AllowAll
from repro.experiments.figure7 import run_figure7
from repro.experiments.waledac_fidelity import run_waledac
from repro.farm import Farm, FarmConfig
from repro.reporting.health import HealthChecker
from repro.reporting.report import StreamingReport
from repro.world.builder import ExternalWorld
from tests.test_containment_end_to_end import (
    EXTERNAL_WEB_IP,
    http_fetch_image,
    http_server,
)

pytestmark = pytest.mark.integration


class TestHealthChecker:
    def test_well_contained_botfarm_is_clean(self):
        result = run_figure7(duration=400)
        warnings = HealthChecker(expect_autoinfection=True).check(
            result.report)
        assert warnings == [], warnings

    def test_forward_heavy_policy_flagged(self):
        """AllowAll is the §6.5 example of an 'unusual number of
        FORWARD verdicts'."""
        farm = Farm(FarmConfig(seed=171))
        sub = farm.create_subfarm("buggy")
        web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
        http_server(web)
        image, _results = http_fetch_image()
        streams = StreamingReport([sub])
        sub.create_inmate(image_factory=image, policy=AllowAll())
        farm.run(until=120)
        report = streams.report()
        warnings = HealthChecker().check(report)
        assert any(w.check == "forward-heavy" and w.severity == "critical"
                   for w in warnings)

    def test_blacklisted_inmate_flagged(self):
        """The Waledac test-message incident surfaces as a critical
        warning — exactly how GQ noticed it (§6.5 blacklist checks)."""
        result = run_waledac("test-message", duration=400)
        # Rebuild the report with the blocklist wired in.
        assert result.inmate_blacklisted  # scenario sanity
        # The waledac experiment does not keep its farm; run a focused
        # scenario instead.
        from repro.experiments.waledac_fidelity import (
            WaledacEarlyPolicy,
        )
        from repro.inmates.images import autoinfect_image
        from repro.malware.corpus import Sample

        farm = Farm(FarmConfig(seed=172))
        sub = farm.create_subfarm("waledac")
        world = ExternalWorld(farm)
        world.add_standard_victims(domains=1, mailboxes_per_domain=5)
        world.add_http_cnc("waledac", "waledac-cc.example",
                           world.default_campaign("waledac"),
                           path_prefix="/waledac/")
        sub.add_catchall_sink()
        sub.add_smtp_sink()
        gmail = world.mx_for_domain("gmail.example")
        policy = WaledacEarlyPolicy(gmail.mx.host.ip)
        streams = StreamingReport([sub])
        inmate = sub.create_inmate(image_factory=autoinfect_image(),
                                   policy=policy)
        policy.set_sample(inmate.vlan, inmate.vlan,
                          Sample("waledac",
                                 params={"test_recipient":
                                         "probe@gmail.example"}))
        farm.run(until=400)
        report = streams.report(world.blocklist)
        warnings = HealthChecker().check(report)
        assert any(w.check == "blacklisted" for w in warnings)

    def test_missing_autoinfection_flagged(self):
        farm = Farm(FarmConfig(seed=173))
        sub = farm.create_subfarm("noinfect")
        web = farm.add_external_host("webserver", EXTERNAL_WEB_IP)
        http_server(web)
        image, _results = http_fetch_image()
        from repro.core.policy import ReflectAll

        sub.add_catchall_sink()
        streams = StreamingReport([sub])
        sub.create_inmate(image_factory=image, policy=ReflectAll())
        farm.run(until=120)
        report = streams.report()
        warnings = HealthChecker(expect_autoinfection=True).check(report)
        assert any(w.check == "no-autoinfection" for w in warnings)
