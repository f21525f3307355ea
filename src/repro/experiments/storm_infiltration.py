"""§7.1 "Unexpected visitors": Storm proxy bots and the FTP surprise.

Two containment postures around the same infiltration:

* ``tight`` — the paper's actual policy: preserve inbound
  reachability, forward the HTTP-borne C&C, reflect all other
  outgoing activity to the sink.  The botmaster's SOCKS-framed FTP
  iframe-injection jobs land at the sink; the victim site survives;
  the sink's records are how GQ noticed the jobs at all.
* ``loose`` — the counterfactual the paper warns about ("articles on
  Storm frequently stated that its proxy bots did not themselves
  engage in malicious activity, and a correspondingly loose
  containment policy would have allowed these attacks to proceed
  unhindered"): outbound FTP forwarded.  The site gets defaced.
"""

from __future__ import annotations

from typing import List

from repro.core.policy import Action, Rule
from repro.farm import Farm, FarmConfig
from repro.gateway.nat import InboundMode
from repro.inmates.images import autoinfect_image
from repro.malware.corpus import Sample
from repro.malware.storm import StormBotmaster
from repro.policies.storm import StormPolicy
from repro.world.builder import ExternalWorld

POSTURES = ("tight", "loose")

FTP_CREDENTIALS = ("webmaster", "hunter2")


class StormLoosePolicy(StormPolicy):
    """The counterfactual: trust that proxy bots are harmless."""

    name = "StormLoose"

    def declare(self) -> List[Rule]:
        return super().declare() + [Rule(
            Action("forward", "loose: FTP believed benign"), 21,
            direction="outbound")]


class StormResult:
    def __init__(self, posture: str) -> None:
        self.posture = posture
        self.jobs_attempted = 0
        self.jobs_succeeded = 0
        self.site_defaced = False
        self.ftp_attempts_at_sink = 0
        self.overlay_connections = 0
        self.socks_jobs = 0

    def __repr__(self) -> str:
        return (
            f"<Storm {self.posture}: jobs={self.jobs_attempted} "
            f"defaced={self.site_defaced} "
            f"sink_ftp={self.ftp_attempts_at_sink}>"
        )


def run_storm(posture: str, duration: float = 900.0,
              seed: int = 2008) -> StormResult:
    if posture not in POSTURES:
        raise ValueError(f"posture must be one of {POSTURES}")
    farm = Farm(FarmConfig(seed=seed, inbound_mode=InboundMode.FORWARD))
    sub = farm.create_subfarm("storm-study")
    world = ExternalWorld(farm)
    site = world.add_ftp_site("smallbiz.example", *FTP_CREDENTIALS)

    sub.add_catchall_sink()
    policy = StormLoosePolicy() if posture == "loose" else StormPolicy()
    sample = Sample("storm")
    inmate = sub.create_inmate(image_factory=autoinfect_image(),
                               policy=policy)
    policy.set_sample(inmate.vlan, inmate.vlan, sample)

    # Let the bot boot and get its global address, then aim the
    # upstream botmaster at it.
    farm.run(until=60)
    global_ip = sub.nat.global_for(inmate.vlan)
    assert global_ip is not None, "inmate failed to come up"
    botmaster_host = farm.add_external_host("storm-upstream", "203.0.113.99")
    botmaster = StormBotmaster(
        farm.sim, botmaster_host,
        bot_addresses=[global_ip],
        ftp_target=site.host.ip,
        ftp_credentials=FTP_CREDENTIALS,
        job_interval=60.0,
    )
    botmaster.start()
    farm.run(until=duration)

    result = StormResult(posture)
    result.jobs_attempted = botmaster.jobs_attempted
    result.jobs_succeeded = botmaster.jobs_succeeded
    result.site_defaced = site.defaced
    specimen = getattr(inmate.host, "specimen", None) if inmate.host else None
    if specimen is not None:
        result.overlay_connections = specimen.stats.get("overlay_connections", 0)
        result.socks_jobs = specimen.stats.get("socks_jobs", 0)
    sink = sub.sinks["sink"]
    result.ftp_attempts_at_sink = sum(
        1 for record in sink.records if record.dst_port == 21
    )
    return result


def run_both(duration: float = 900.0, seed: int = 2008):
    return {posture: run_storm(posture, duration, seed)
            for posture in POSTURES}


def render(results) -> str:
    lines = [
        "Storm proxy-bot containment postures (§7.1)",
        "",
        f"{'POSTURE':<8} {'OVERLAY CONNS':>13} {'SOCKS JOBS':>10} "
        f"{'FTP AT SINK':>11} {'JOBS SUCCEEDED':>14} {'SITE DEFACED':>12}",
        "-" * 76,
    ]
    for posture, result in results.items():
        lines.append(
            f"{posture:<8} {result.overlay_connections:>13} "
            f"{result.socks_jobs:>10} {result.ftp_attempts_at_sink:>11} "
            f"{result.jobs_succeeded:>14} "
            f"{'YES' if result.site_defaced else 'no':>12}"
        )
    lines.append("-" * 76)
    lines.append(
        "The tight policy preserved reachability and C&C while the "
        "reflect-\neverything-else stance caught the iframe-injection "
        "jobs at the sink;\nthe loose counterfactual let the site get "
        "defaced."
    )
    return "\n".join(lines)
