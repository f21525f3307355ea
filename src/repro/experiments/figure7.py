"""Figure 7 regeneration: the "Botfarm" activity report.

The scenario behind the paper's report excerpt: a subfarm running
Grum and Rustock inmates under their family policies with
auto-infection, an SMTP sink configured to drop connections
probabilistically, the whole thing driven from a Figure 6-style
configuration file.  The run produces the same report structure —
FORWARD C&C rows, REFLECT "full SMTP containment" rows dwarfing them,
REWRITE auto-infection rows carrying sample MD5s, and SMTP
session/DATA-transfer totals that differ because of the sink's
probabilistic drops.
"""

from __future__ import annotations

from typing import Dict

from repro.core.config import ContainmentConfig, SampleLibrary, apply_config
from repro.farm import Farm, FarmConfig
from repro.inmates.images import autoinfect_image
from repro.malware.corpus import Sample
from repro.reporting.report import (ActivityReport, StreamingReport,
                                    render_report)
from repro.world.builder import ExternalWorld

BOTFARM_CONFIG = """
[VLAN 16-17]
Decider = Rustock
Infection = rustock.100921.*.exe

[VLAN 18-19]
Decider = Grum
Infection = grum.100818.*.exe

[VLAN 16-19]
Trigger = *:25/tcp / 30min < 1 -> revert

[Autoinfect]
Address = 10.9.8.7
Port = 6543
"""


class Figure7Result:
    def __init__(self) -> None:
        self.report: ActivityReport = None  # type: ignore[assignment]
        self.rendered = ""
        self.verdict_totals: Dict[str, int] = {}
        self.smtp_sessions = 0
        self.smtp_data_transfers = 0
        self.sink_sessions_dropped = 0
        self.spam_delivered_outside = 0
        self.sample_md5s: Dict[str, str] = {}

    def __repr__(self) -> str:
        return (
            f"<Figure7 verdicts={self.verdict_totals} "
            f"smtp={self.smtp_sessions}/{self.smtp_data_transfers}>"
        )


def build_botfarm(seed: int = 7, drop_probability: float = 0.2,
                  send_interval: float = 0.5):
    """The Figure 6 deployment, not yet run: returns the farm, its
    "Botfarm" subfarm, the external world and the two samples."""
    farm = Farm(FarmConfig(seed=seed))
    sub = farm.create_subfarm("Botfarm")
    world = ExternalWorld(farm)
    world.add_standard_victims(domains=3, mailboxes_per_domain=40)

    rustock_campaign = world.default_campaign(
        "rustock", batch_size=20, send_interval=send_interval)
    rustock_cnc = world.add_http_cnc("rustock", "rustock-cc.example",
                                     rustock_campaign, port=443,
                                     path_prefix="/mod/")
    world.add_http_cnc("rustock-beacon", "rustock-cc.example",
                       rustock_campaign, port=80, path_prefix="/stat",
                       on_host=rustock_cnc.host)
    world.add_http_cnc("grum", "grum-cc.example",
                       world.default_campaign("grum", batch_size=20,
                                              send_interval=send_interval),
                       path_prefix="/grum/")

    sub.add_catchall_sink()
    sub.add_smtp_sink(drop_probability=drop_probability)

    rustock_sample = Sample("rustock")
    grum_sample = Sample("grum")
    library = SampleLibrary()
    library.add("rustock.100921.a.exe", rustock_sample)
    library.add("grum.100818.a.exe", grum_sample)

    config = ContainmentConfig.parse(BOTFARM_CONFIG)
    apply_config(config, sub, library)

    for vlan in (16, 17, 18, 19):
        sub.create_inmate(image_factory=autoinfect_image(), vlan=vlan)
    return farm, sub, world, {"rustock": rustock_sample, "grum": grum_sample}


def run_figure7(duration: float = 1200.0, seed: int = 7,
                drop_probability: float = 0.2,
                send_interval: float = 0.5) -> Figure7Result:
    farm, sub, world, samples = build_botfarm(seed, drop_probability,
                                              send_interval)

    # Bro-style streaming analysis: the analyzers see every frame as
    # it is captured and the trace stores none, so day-scale runs stay
    # in bounded memory (§6.5's hourly/daily reporting model).
    streams = StreamingReport([sub])

    farm.run(until=duration)

    result = Figure7Result()
    result.report = streams.report(world.blocklist)
    result.rendered = render_report(result.report)
    result.verdict_totals = result.report.verdict_totals()
    sink = sub.sinks["smtp_sink"]
    result.smtp_sessions = sink.sessions_accepted + sink.sessions_dropped
    result.smtp_data_transfers = sink.data_transfers
    result.sink_sessions_dropped = sink.sessions_dropped
    result.spam_delivered_outside = world.total_spam_delivered()
    result.sample_md5s = {family: sample.md5
                          for family, sample in samples.items()}
    return result
