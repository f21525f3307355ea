"""Figure 3: independent subfarms over disjoint VLAN ranges.

One gateway, one real web server, three subfarms under three policies
(deployment forwards, development reflects to its sink, locked drops);
each inmate makes the same single fetch.
"""

from __future__ import annotations

from repro.core.policy import AllowAll, DefaultDeny, ReflectAll
from repro.experiments.scalability import WEB_IP, _web_server, flowgen_image
from repro.farm import Farm, FarmConfig

POLICIES = (("deployment", AllowAll), ("development", ReflectAll),
            ("locked", DefaultDeny))


def run_figure3(seed: int = 19, duration: float = 120.0):
    """Returns the subfarms by name and the requests the real web
    server answered."""
    farm = Farm(FarmConfig(seed=seed))
    served = _web_server(farm.add_external_host("webserver", WEB_IP))
    subs = {}
    for name, policy in POLICIES:
        sub = farm.create_subfarm(name)
        sub.add_catchall_sink()
        # An interval beyond the run: exactly one fetch per inmate.
        sub.create_inmate(image_factory=flowgen_image(2 * duration),
                          policy=policy())
        subs[name] = sub
    farm.run(until=duration)
    return subs, served


def render(observed) -> str:
    subs, served = observed
    lines = [
        "Figure 3 — parallel subfarms, one gateway, disjoint VLAN sets",
        "",
        f"{'SUBFARM':<12} {'VLANS':<10} {'CS':<12} {'VERDICTS':<24} "
        f"{'SINK HITS':>9}",
        "-" * 72,
    ]
    for name, sub in subs.items():
        verdicts = dict(sub.containment_server.verdict_counts)
        sink = sub.sinks["sink"].connections_accepted
        lines.append(
            f"{name:<12} {str(sorted(sub.router.vlan_ids)):<10} "
            f"{str(sub.cs_ip):<12} {str(verdicts):<24} {sink:>9}"
        )
    lines.append("-" * 72)
    lines.append(f"requests that reached the real web server: {len(served)} "
                 f"(deployment only)")
    return "\n".join(lines)
