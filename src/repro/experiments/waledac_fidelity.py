"""§7.1 "Mysterious blacklisting" + "Satisfying fidelity", end to end.

Three containment configurations for Waledac, matching the paper's
chronology:

* ``test-message`` — the early policy: all SMTP reflected to the plain
  sink, except a single test exchange with the GMail-like provider
  allowed out.  Outcome in the paper: the inmates appeared on the CBL,
  because Google recognized the ``wergvan`` HELO and reported them.
* ``plain-sink`` — the obvious fix: reflect *everything*, default
  banner.  Outcome: the bots cease activity (they never see the
  banner they expect), so no spam is harvested.
* ``banner-grabbing`` — the sink fetches genuine greeting banners from
  the intended destinations.  Outcome: bots stay active, spam is
  harvested, and nothing is blacklisted.
"""

from __future__ import annotations

from typing import List

from repro.core.policy import Action, Rule
from repro.farm import Farm, FarmConfig
from repro.inmates.images import autoinfect_image
from repro.malware.corpus import Sample
from repro.net.addresses import IPv4Address
from repro.net.packet import PROTO_TCP
from repro.policies.spambot import SMTP_PORT, Waledac as WaledacPolicy
from repro.world.builder import ExternalWorld

MODES = ("test-message", "plain-sink", "banner-grabbing")


class WaledacEarlyPolicy(WaledacPolicy):
    """The pre-lesson policy: permit the GMail test exchange."""

    name = "WaledacEarly"

    def __init__(self, gmail_mx_ip: IPv4Address, services=None,
                 config=None) -> None:
        super().__init__(services, config)
        self.gmail_mx_ip = IPv4Address(gmail_mx_ip)

    def declare(self) -> List[Rule]:
        # Ahead of the family's own rules: theirs reflect all of port 25.
        return [Rule(Action("forward", "permitted test message"), SMTP_PORT,
                     PROTO_TCP, dst=self.gmail_mx_ip)] + super().declare()


class WaledacResult:
    """Everything the operator would look at afterwards."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.bot_alive = False
        self.messages_sent = 0
        self.banner_rejections = 0
        self.sink_data_transfers = 0
        self.spam_delivered_outside = 0
        self.inmate_blacklisted = False
        self.banner_fetches = 0

    def __repr__(self) -> str:
        return (
            f"<Waledac {self.mode}: alive={self.bot_alive} "
            f"harvested={self.sink_data_transfers} "
            f"blacklisted={self.inmate_blacklisted}>"
        )


def run_waledac(mode: str, duration: float = 900.0,
                seed: int = 2009) -> WaledacResult:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    farm = Farm(FarmConfig(seed=seed))
    sub = farm.create_subfarm("waledac-study")
    world = ExternalWorld(farm)
    world.add_standard_victims(domains=3, mailboxes_per_domain=20)
    world.add_http_cnc("waledac", "waledac-cc.example",
                       world.default_campaign("waledac", batch_size=10,
                                              send_interval=1.0),
                       path_prefix="/waledac/")

    sub.add_catchall_sink()
    sub.add_smtp_sink(
        banner_grabbing=(mode == "banner-grabbing"),
        default_banner="sink.gq.example ESMTP ready",
    )

    gmail = world.mx_for_domain("gmail.example")
    if mode == "test-message":
        policy = WaledacEarlyPolicy(gmail.mx.host.ip)
        sample = Sample("waledac",
                        params={"test_recipient": "probe@gmail.example"})
    else:
        policy = WaledacPolicy()
        sample = Sample("waledac")

    inmate = sub.create_inmate(image_factory=autoinfect_image(),
                               policy=policy)
    policy.set_sample(inmate.vlan, inmate.vlan, sample)

    farm.run(until=duration)

    result = WaledacResult(mode)
    specimen = getattr(inmate.host, "specimen", None) if inmate.host else None
    if specimen is not None:
        result.bot_alive = specimen.alive
        result.messages_sent = specimen.stats.get("messages_sent", 0)
        result.banner_rejections = specimen.stats.get("banner_rejections", 0)
    sink = sub.sinks["smtp_sink"]
    result.sink_data_transfers = sink.data_transfers
    result.banner_fetches = sink.banner_fetches
    result.spam_delivered_outside = world.total_spam_delivered()
    global_ip = sub.nat.global_for(inmate.vlan)
    if global_ip is not None:
        result.inmate_blacklisted = world.blocklist.listed(global_ip)
    return result


def run_all(duration: float = 900.0, seed: int = 2009):
    return {mode: run_waledac(mode, duration, seed) for mode in MODES}


def render(results) -> str:
    lines = [
        "Waledac containment configurations (§7.1)",
        "",
        f"{'MODE':<16} {'BOT ALIVE':>9} {'HARVESTED':>9} "
        f"{'SENT OUTSIDE':>12} {'BLACKLISTED':>11} {'BANNER GRABS':>12}",
        "-" * 76,
    ]
    for mode, result in results.items():
        lines.append(
            f"{mode:<16} {'yes' if result.bot_alive else 'no':>9} "
            f"{result.sink_data_transfers:>9} "
            f"{result.spam_delivered_outside:>12} "
            f"{'LISTED' if result.inmate_blacklisted else 'clean':>11} "
            f"{result.banner_fetches:>12}"
        )
    lines.append("-" * 76)
    lines.append(
        "Paper narrative: the permitted test message got the inmates CBL-"
        "listed\n(recognizable wergvan HELO); the plain sink silenced the "
        "bots; banner\ngrabbing restored fidelity with zero outside "
        "interaction."
    )
    return "\n".join(lines)
