#!/usr/bin/env python3
"""Spam campaign study: the paper's flagship workload.

Reproduces the deployment/development split the authors found
"exceedingly useful" (§4, Multiple experiments): one subfarm
continuously harvests spam from Grum and Rustock under mature,
Figure 6-configured policies; a second subfarm runs a freshly
obtained sample under reflect-everything while its policy is being
developed.  Ends with the Figure 7 activity report and a campaign
summary from the harvested spam.

Run:  python examples/spam_campaign_study.py
"""

from repro.core.config import ContainmentConfig, SampleLibrary, apply_config
from repro.experiments.figure7 import BOTFARM_CONFIG
from repro.farm import Farm, FarmConfig
from repro.inmates.images import autoinfect_image
from repro.malware.corpus import Sample
from repro.reporting.report import StreamingReport, render_report
from repro.world.builder import ExternalWorld


def main() -> None:
    print(__doc__)
    farm = Farm(FarmConfig(seed=2011))
    world = ExternalWorld(farm)
    world.add_standard_victims(domains=4, mailboxes_per_domain=40)

    # C&C infrastructure.
    rustock_campaign = world.default_campaign("rustock", batch_size=20,
                                              send_interval=0.8)
    rustock_cnc = world.add_http_cnc("rustock", "rustock-cc.example",
                                     rustock_campaign, port=443,
                                     path_prefix="/mod/")
    world.add_http_cnc("rustock-beacon", "rustock-cc.example",
                       rustock_campaign, port=80, path_prefix="/stat",
                       on_host=rustock_cnc.host)
    world.add_http_cnc("grum", "grum-cc.example",
                       world.default_campaign("grum", batch_size=20,
                                              send_interval=0.8),
                       path_prefix="/grum/")
    world.add_http_cnc("waledac", "waledac-cc.example",
                       world.default_campaign("waledac"),
                       path_prefix="/waledac/")

    # Deployment subfarm: mature policies from the config file.
    deployment = farm.create_subfarm("Botfarm")
    deployment.add_catchall_sink()
    deployment.add_smtp_sink(drop_probability=0.15)
    library = SampleLibrary()
    library.add("rustock.100921.a.exe", Sample("rustock"))
    library.add("grum.100818.a.exe", Sample("grum"))
    apply_config(ContainmentConfig.parse(BOTFARM_CONFIG), deployment,
                 library)
    for vlan in (16, 17, 18, 19):
        deployment.create_inmate(image_factory=autoinfect_image(),
                                 vlan=vlan)

    # Development subfarm: a fresh specimen, reflected while studied.
    development = farm.create_subfarm("Development")
    dev_sink = development.add_catchall_sink()
    fresh = development.create_inmate(image_factory=autoinfect_image())
    # Reflect-everything, except the auto-infection flow still needs
    # its REWRITE impersonation — exactly what ClassificationPolicy is.
    from repro.experiments.classification import ClassificationPolicy

    dev_policy = ClassificationPolicy()
    development.assign_policy(dev_policy, fresh.vlan)
    dev_policy.set_sample(fresh.vlan, fresh.vlan, Sample("waledac"))

    # The report's analyzers read each subfarm's trace as it is
    # captured: an hour overflows the stored window.
    streams = StreamingReport([deployment, development])

    print("Running one simulated hour...")
    farm.run(until=3600)

    print(render_report(streams.report(world.blocklist)))

    sink = deployment.sinks["smtp_sink"]
    print("Harvest summary (deployment subfarm):")
    print(f"  messages harvested : {sink.data_transfers}")
    print(f"  distinct campaigns : {len(sink.campaigns)}")
    for body, count in sorted(sink.campaigns.items(),
                              key=lambda kv: -kv[1])[:3]:
        subject = body.splitlines()[0].decode("latin-1", "replace")
        print(f"    {count:>6} x {subject}")
    print(f"  delivered outside  : {world.total_spam_delivered()} "
          "(containment held)" if world.total_spam_delivered() == 0
          else "  CONTAINMENT FAILURE")

    print("\nDevelopment subfarm observations (fresh Waledac sample):")
    for port, count in dev_sink.by_destination_port().items():
        print(f"  port {port}: {count} reflected flows")
    print("  -> next step: whitelist the POST /waledac/ctrl shape "
          "(see examples/policy_development.py)")


if __name__ == "__main__":
    main()
