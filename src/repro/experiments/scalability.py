"""§7.2 system scalability.

Three constraints the paper names, each measured here:

1. VLAN IDs are 12 bits — at most 4,094 inmates per inmate network.
2. A single containment server must interpose on every flow in its
   subfarm; under load its verdict queue grows.  A cluster managed by
   the packet router (sticky per-inmate selection) divides the load.
3. The central gateway carries everything; the paper's one machine
   ran 5-6 subfarms with a handful to a dozen inmates each.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.policy import AllowAll
from repro.farm import Farm, FarmConfig
from repro.inmates.vlan_pool import VlanPool, VlanPoolExhausted
from repro.net.addresses import IPv4Address
from repro.net.http import HttpRequest, HttpResponse, request, serve
from repro.services.dhcp import DhcpClient

WEB_IP = "203.0.113.80"


def flowgen_image(interval: float, target: str = WEB_IP,
                  port: int = 80):
    """An inmate that opens one short HTTP flow every ``interval``."""

    def image(host):
        def configured(configured_host):
            def tick():
                request(configured_host, IPv4Address(target), port,
                        HttpRequest("GET", "/ping"),
                        lambda conn, _response: conn.close())
                configured_host.sim.schedule(
                    interval * configured_host.rng.uniform(0.7, 1.3),
                    tick, label="flowgen")

            configured_host.sim.schedule(1.0, tick, label="flowgen-start")

        DhcpClient(host, on_configured=configured).start()

    return image


def _web_server(host):
    """Answer every GET with ``pong``; returns the (live) list of
    requests served."""
    served = []

    def respond(message):
        served.append(message)
        return HttpResponse(200, body=b"pong")

    serve(host, 80, respond)
    return served


class CsLoadResult:
    def __init__(self, inmates: int, cluster_size: int) -> None:
        self.inmates = inmates
        self.cluster_size = cluster_size
        self.verdicts = 0
        self.mean_queue_delay = 0.0
        self.max_queue_delay = 0.0
        self.load_balance: List[int] = []

    def __repr__(self) -> str:
        return (
            f"<CsLoad inmates={self.inmates} cluster={self.cluster_size} "
            f"mean_delay={self.mean_queue_delay * 1000:.1f}ms>"
        )


def run_cs_load(
    inmates: int,
    cluster_size: int = 1,
    service_time: float = 0.05,
    flow_interval: float = 2.0,
    duration: float = 300.0,
    seed: int = 5,
) -> CsLoadResult:
    """Measure containment-server queueing under flow load."""
    farm = Farm(FarmConfig(seed=seed))
    sub = farm.create_subfarm("load")
    web = farm.add_external_host("webserver", WEB_IP)
    _web_server(web)
    servers = sub.add_containment_servers(cluster_size - 1)
    sub.set_cs_service_time(service_time)
    sub.set_default_policy(AllowAll())
    for _ in range(inmates):
        sub.create_inmate(image_factory=flowgen_image(flow_interval))
    farm.run(until=duration)

    result = CsLoadResult(inmates, cluster_size)
    result.load_balance = [sum(server.verdict_counts.values())
                           for server in servers]
    result.verdicts = sum(result.load_balance)
    queued = sum(server.queued for server in servers)
    if queued:
        result.mean_queue_delay = sum(
            server.queue_delay_total for server in servers) / queued
        result.max_queue_delay = max(server.queue_delay_max
                                     for server in servers)
    return result


class GatewayLoadResult:
    def __init__(self, subfarms: int, inmates_per: int) -> None:
        self.subfarms = subfarms
        self.inmates_per = inmates_per
        self.packets_relayed = 0
        self.flows_created = 0
        self.events_processed = 0
        self.simulated_seconds = 0.0

    @property
    def flows_per_simulated_second(self) -> float:
        if not self.simulated_seconds:
            return 0.0
        return self.flows_created / self.simulated_seconds

    def __repr__(self) -> str:
        return (
            f"<GatewayLoad {self.subfarms}x{self.inmates_per}: "
            f"{self.flows_created} flows, "
            f"{self.packets_relayed} packets relayed>"
        )


def run_gateway_load(
    subfarms: int = 6,
    inmates_per: int = 12,
    flow_interval: float = 5.0,
    duration: float = 300.0,
    seed: int = 6,
) -> GatewayLoadResult:
    """The paper's operating point: 5-6 subfarms, up to a dozen
    inmates each, all through one gateway."""
    farm = Farm(FarmConfig(seed=seed))
    web = farm.add_external_host("webserver", WEB_IP)
    _web_server(web)
    subs = []
    for index in range(subfarms):
        sub = farm.create_subfarm(f"subfarm-{index}")
        sub.set_default_policy(AllowAll())
        for _ in range(inmates_per):
            sub.create_inmate(image_factory=flowgen_image(flow_interval))
        subs.append(sub)
    farm.run(until=duration)

    result = GatewayLoadResult(subfarms, inmates_per)
    result.simulated_seconds = farm.sim.now
    result.events_processed = farm.sim.events_processed
    for sub in subs:
        result.packets_relayed += sub.router.counters["packets_relayed"]
        result.flows_created += sub.router.counters["flows_created"]
    return result


# ----------------------------------------------------------------------
# Sharded campaign wiring (repro.parallel)
# ----------------------------------------------------------------------
def gateway_load_shard(seed: int, subfarms: int = 3, inmates_per: int = 4,
                       flow_interval: float = 5.0,
                       duration: float = 120.0) -> dict:
    """Shard task: one gateway-load farm run, digested.

    Module-level and JSON-in/JSON-out so spawn-started campaign
    workers can import it by name
    (``"repro.experiments.scalability:gateway_load_shard"``).
    """
    import hashlib
    import json as _json

    result = run_gateway_load(subfarms=subfarms, inmates_per=inmates_per,
                              flow_interval=flow_interval,
                              duration=duration, seed=seed)
    digest = hashlib.sha256()
    digest.update(_json.dumps({
        "seed": seed,
        "packets_relayed": result.packets_relayed,
        "flows_created": result.flows_created,
        "events": result.events_processed,
        "simulated": result.simulated_seconds,
    }, sort_keys=True).encode())
    return {
        "seed": seed,
        "subfarms": subfarms,
        "inmates_per": inmates_per,
        "metrics": {
            "packets_relayed": result.packets_relayed,
            "flows_created": result.flows_created,
            "events": result.events_processed,
        },
        "flows_per_simulated_second":
            result.flows_per_simulated_second,
        "digest": digest.hexdigest(),
    }


def run_gateway_load_sweep(
    seeds=None,
    count: int = 8,
    seed: int = 6,
    subfarms: int = 3,
    inmates_per: int = 4,
    flow_interval: float = 5.0,
    duration: float = 120.0,
    workers: int = 1,
    hosts=None,
):
    """The paper's operating point as a seed sweep: N independent
    whole-farm gateway-load runs fanned out across a worker pool
    (``workers=1`` = hermetic serial fallback; ``hosts`` = worker-agent
    endpoints for multi-host dispatch) and merged deterministically —
    see docs/PARALLELISM.md."""
    from repro.parallel import Campaign, run_campaign

    campaign = Campaign.seed_sweep(
        "gateway-load-sweep",
        "repro.experiments.scalability:gateway_load_shard",
        params={
            "subfarms": subfarms,
            "inmates_per": inmates_per,
            "flow_interval": flow_interval,
            "duration": duration,
        },
        seeds=seeds,
        count=None if seeds is not None else count,
        base_seed=seed,
    )
    return run_campaign(campaign, workers=workers, hosts=hosts)


def vlan_capacity_demo() -> Dict[str, int]:
    """The 802.1Q 12-bit ceiling, §7.2 constraint number one."""
    pool = VlanPool()
    allocated = 0
    try:
        while True:
            pool.allocate()
            allocated += 1
    except VlanPoolExhausted:
        pass
    return {"capacity": pool.capacity, "allocated": allocated}


# ----------------------------------------------------------------------
# The §7.2 artefact: all three constraints in one table
# ----------------------------------------------------------------------
CS_SWEEP = [(4, 1), (8, 1), (12, 1), (12, 2), (12, 4)]


def run_scalability(duration: float = 200.0):
    vlan = vlan_capacity_demo()
    cs = [run_cs_load(inmates, cluster, duration=duration)
          for inmates, cluster in CS_SWEEP]
    gateway = run_gateway_load(subfarms=6, inmates_per=12,
                               flow_interval=5.0, duration=duration)
    return vlan, cs, gateway


def render(study) -> str:
    vlan, cs_results, gateway = study
    lines = [
        "System scalability (§7.2)",
        "",
        f"1. VLAN ID pool: {vlan['capacity']} usable IDs "
        "(IEEE 802.1Q, 12 bits) — hard ceiling on inmates per network",
        "",
        "2. Containment-server load (verdict queue under flow load):",
        f"   {'INMATES':>7} {'CLUSTER':>7} {'VERDICTS':>8} "
        f"{'MEAN DELAY':>10} {'MAX DELAY':>9} {'BALANCE'}",
    ]
    for result in cs_results:
        lines.append(
            f"   {result.inmates:>7} {result.cluster_size:>7} "
            f"{result.verdicts:>8} "
            f"{result.mean_queue_delay * 1000:>8.1f}ms "
            f"{result.max_queue_delay * 1000:>7.1f}ms "
            f"{result.load_balance}"
        )
    lines.extend([
        "",
        "3. Gateway at the paper's operating point "
        "(5-6 subfarms, a dozen inmates each):",
        f"   subfarms={gateway.subfarms} inmates/subfarm="
        f"{gateway.inmates_per}",
        f"   flows carried      : {gateway.flows_created}",
        f"   packets relayed    : {gateway.packets_relayed}",
        f"   flows/simulated-sec: "
        f"{gateway.flows_per_simulated_second:.1f}",
    ])
    return "\n".join(lines)
