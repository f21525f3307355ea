"""Figure 1: the overall architecture, constructed and verified.

Three subfarms of four idle inmates behind one gateway: the rendered
artefact names every network of the figure (upstream, control, inmate
trunk, management) and each subfarm's VLANs, containment server, DNS
resolver and NAT leases.
"""

from __future__ import annotations

from repro.core.policy import DefaultDeny
from repro.farm import Farm, FarmConfig
from repro.inmates.images import idle_image


def run_figure1(seed: int = 1, duration: float = 90.0):
    """Returns the farm and its subfarms, every inmate booted."""
    farm = Farm(FarmConfig(seed=seed))
    subs = [farm.create_subfarm(f"subfarm-{i}") for i in range(3)]
    for sub in subs:
        sub.add_catchall_sink()
        sub.set_default_policy(DefaultDeny())
        for _ in range(4):
            sub.create_inmate(image_factory=idle_image())
    farm.run(until=duration)
    return farm, subs


def render(built) -> str:
    farm, subs = built
    lines = [
        "Figure 1 — overall architecture",
        "",
        "Gateway between outside network and internal machinery:",
        f"    upstream networks : "
        f"{[str(n) for n in farm.config.global_networks]}",
        f"    control network   : {farm.config.control_network}",
        f"    inmate trunk      : 802.1Q, "
        f"{sum(len(s.router.vlan_ids) for s in subs)} inmate VLANs",
        f"    management network: controller at {farm.controller_ip}",
        "",
        "Subfarms (inmate network):",
    ]
    for sub in subs:
        bindings = sub.nat.bindings()
        lines.append(
            f"    {sub.name}: vlans={sorted(sub.router.vlan_ids)} "
            f"cs={sub.cs_ip} dns={sub.dns_ip} "
            f"leases={len(bindings)}"
        )
    return "\n".join(lines)
