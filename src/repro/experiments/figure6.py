"""Figure 6: the containment server configuration file, parsed and
applied to a subfarm."""

from __future__ import annotations

from repro.core.config import ContainmentConfig, SampleLibrary, apply_config
from repro.experiments.figure7 import BOTFARM_CONFIG
from repro.farm import Farm, FarmConfig
from repro.malware.corpus import Sample


def run_figure6():
    """Returns the parsed config, the configured subfarm and the
    policies the config instantiated (nothing runs: no seed)."""
    farm = Farm(FarmConfig(seed=1))
    sub = farm.create_subfarm("Botfarm")
    library = SampleLibrary()
    library.add("rustock.100921.a.exe", Sample("rustock"))
    library.add("grum.100818.a.exe", Sample("grum"))
    config = ContainmentConfig.parse(BOTFARM_CONFIG)
    policies = apply_config(config, sub, library)
    return config, sub, policies


def render(applied) -> str:
    config, sub, _policies = applied
    lines = [
        "Figure 6 — containment configuration, parsed and applied",
        "",
        "Input:",
    ]
    lines.extend("    " + line for line in BOTFARM_CONFIG.strip().splitlines())
    lines.append("")
    lines.append("Resulting assignment:")
    for vlan in (16, 17, 18, 19, 20):
        policy = sub.policy_map.resolve(vlan)
        triggers = config.triggers_for_vlan(vlan)
        lines.append(
            f"    VLAN {vlan}: decider={policy.policy_name:<12} "
            f"triggers={len(triggers)}"
        )
    lines.append(f"    services: {sorted(sub.services)}")
    return "\n".join(lines)
