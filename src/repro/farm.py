"""Top-level farm orchestration — the public API of the reproduction.

A :class:`Farm` assembles the whole of Figure 1 on one virtual clock:
the simulated Internet backbone, the central gateway with its upstream
and trunk interfaces, the inmate network switch, the management
network with the inmate controller, and any number of independent
:class:`Subfarm` habitats (Figure 3), each with its own packet router,
containment server, infrastructure services, and inmates.

Typical use::

    farm = Farm(FarmConfig(seed=1))
    sub = farm.create_subfarm("spam-study")
    sub.add_catchall_sink()
    sub.assign_policy_factory(ReflectAll)
    inmate = sub.create_inmate(image_factory=my_image)
    farm.run(until=3600)
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.policy import ContainmentPolicy, DefaultDeny, PolicyMap
from repro.core.server import CS_DEFAULT_PORT, ContainmentServer
from repro.core.triggers import TriggerEngine
from repro.faults import FaultInjector, FaultPlan
from repro.gateway.gateway import Gateway
from repro.gateway.nat import AddressPool, InboundMode, NatTable
from repro.gateway.router import SubfarmRouter
from repro.gateway.safety import SafetyFilter
from repro.inmates.controller import (
    CONTROLLER_PORT,
    InmateController,
    LifecycleMessenger,
)
from repro.inmates.hosting import HostingBackend, ImageFactory, Inmate
from repro.inmates.vlan_pool import VlanPool
from repro.net.addresses import IPv4Address, IPv4Network
from repro.net.host import Host
from repro.net.link import Link, Switch
from repro.net.router import Router
from repro.services.resolver import RecursiveResolver
from repro.services.sink import CatchAllSink
from repro.services.smtp_sink import SmtpSink
from repro.shape import NUMBER, Table, check
from repro.sim.engine import Simulator


class FarmConfig:
    """Deployment-wide knobs (defaults mirror the paper's §6.7 setup).

    Each field is stated once, in :attr:`FIELDS`: the constructor's
    keywords and defaults, :meth:`to_dict` and :meth:`from_dict`'s
    shape check all follow that table, and
    ``tests/test_farm_api.py`` names the test showing each one changes
    behaviour.
    """

    #: Field -> (kind read by :meth:`from_dict`, default), in
    #: :meth:`to_dict` order (kinds as in :mod:`repro.shape`).
    FIELDS: Dict[str, Tuple[Any, Any]] = {
        "seed": (int, 0),
        # Given as CIDR strings, held as IPv4Network: four /24s for
        # the inmate population when None, one for control (§6.7).
        "global_networks": ([str], None),
        "control_network": (str, "198.18.100.0/24"),
        "inbound_mode": (str, InboundMode.FORWARD),
        "safety_max_flows_per_window": (int, 100000),
        "safety_max_flows_per_destination": (int, 50000),
        "safety_window": (NUMBER, 60.0),
        "telemetry": (bool, False),
        "telemetry_snapshot_interval": (NUMBER, None),
        # Decision journal (repro.obs.journal, docs/OBSERVABILITY.md):
        # off by default so a plain run schedules no sampling events
        # and stays byte-identical to a build without the journal.
        "journal": (bool, False),
        "journal_capacity": (int, 65536),
        "journal_sample_interval": (NUMBER, None),
        # Fault plane + shim resilience (repro.faults,
        # docs/RESILIENCE.md).  An empty plan and verdict_deadline=None
        # leave every run path byte-identical to a build without the
        # fault plane.  None, a plan dict or a spec list are coerced
        # to a FaultPlan.
        "fault_plan": ((dict, list), None),
        "verdict_deadline": (NUMBER, None),
        "verdict_retries": (int, 2),
        "retry_backoff": (NUMBER, 2.0),
        "pending_policy": (str, "drop"),
        "lifecycle_retry_limit": (int, 2),
        "lifecycle_retry_backoff": (NUMBER, 30.0),
        # Malice barrier (docs/HARDENING.md): what happens when a
        # parser rejects ingested bytes — "isolate" aborts the
        # offending flow, "fail-stop" freezes the subfarm's ingest,
        # "count" only records.
        "malice_policy": (str, "isolate"),
        "quarantine_max_frames": (int, 1024),
        # Match-action flow tables (docs/PERFORMANCE.md): entries for
        # flows idle longer than flowtable_idle_timeout (or older than
        # flowtable_hard_timeout) are evicted; the flow's next packet
        # is a table miss and re-installs them.  None (the default)
        # leaves entries resident for the life of the flow.
        "flowtable_idle_timeout": (NUMBER, None),
        "flowtable_hard_timeout": (NUMBER, None),
        # Batched trunk delivery: batch_window=None (default) keeps
        # per-frame delivery; 0.0 coalesces only naturally coincident
        # frames (timing untouched); a positive value quantizes trunk
        # delivery to window boundaries so concurrent inmates' frames
        # arrive together, in one receive_frame_batch call per instant
        # (each frame is still ingested on its own).
        "batch_window": (NUMBER, None),
    }

    #: Numeric field -> the least value it takes.  Each must also be a
    #: finite number of its kind (a bool is none), or None where that
    #: is the default; a window or a deadline of 0 is none at all.
    _LEAST: Dict[str, float] = {
        "safety_max_flows_per_window": 0,
        "safety_max_flows_per_destination": 0, "safety_window": 0,
        "telemetry_snapshot_interval": 0, "journal_capacity": 0,
        "journal_sample_interval": 0, "verdict_deadline": 0,
        "verdict_retries": 0, "retry_backoff": 1,
        "lifecycle_retry_limit": 0, "lifecycle_retry_backoff": 0,
        "quarantine_max_frames": 0, "flowtable_idle_timeout": 0,
        "flowtable_hard_timeout": 0, "batch_window": 0,
    }
    _ABOVE_LEAST = ("safety_window", "verdict_deadline")

    def __init__(self, **values: Any) -> None:
        """``FarmConfig(seed=7, journal=True)``: any of :attr:`FIELDS`
        by keyword.  Coerces the JSON-safe spellings and validates —
        the one place a bad value is refused."""
        from repro.gateway.barrier import POLICIES

        unknown = set(values) - set(self.FIELDS)
        if unknown:
            raise TypeError(
                f"FarmConfig() got unexpected keyword arguments "
                f"{sorted(unknown)}")
        for name, (_kind, default) in self.FIELDS.items():
            setattr(self, name, values.get(name, default))
        self.global_networks = [IPv4Network(cidr) for cidr in (
            self.global_networks or ["198.18.0.0/24", "198.18.1.0/24",
                                     "198.18.2.0/24", "198.18.3.0/24"])]
        self.control_network = IPv4Network(self.control_network)
        self.inbound_mode = InboundMode(self.inbound_mode)
        self.fault_plan = FaultPlan.coerce(self.fault_plan)
        if self.pending_policy not in ("drop", "forward"):
            raise ValueError(
                f"pending_policy must be 'drop' or 'forward', "
                f"not {self.pending_policy!r}")
        if self.malice_policy not in POLICIES:
            raise ValueError(
                f"malice_policy must be one of {POLICIES}, "
                f"not {self.malice_policy!r}")
        # Refused here, not in a worker's create_subfarm or never: an
        # infinite batch window schedules every trunk frame at t = inf,
        # and a NaN safety window never expires the filter's history.
        for name, least in self._LEAST.items():
            kind, default = self.FIELDS[name]
            value = getattr(self, name)
            if value is None and default is None:
                continue
            above = name in self._ABOVE_LEAST
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or not least <= value < float("inf")
                    or (above and value == least)):
                raise ValueError(
                    f"{name} must be "
                    f"{'an int' if kind is int else 'a finite number'} "
                    f"{'>' if above else '>='} {least}, not {value!r}")

    # ------------------------------------------------------------------
    # Serialization — ships configs to campaign workers
    # (repro.parallel) and logs the exact config a run used.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-safe dict that :meth:`from_dict` round-trips."""
        out = {name: getattr(self, name) for name in self.FIELDS}
        out["global_networks"] = [str(net) for net in self.global_networks]
        out["control_network"] = str(self.control_network)
        out["inbound_mode"] = self.inbound_mode.value
        out["fault_plan"] = self.fault_plan.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FarmConfig":
        """Rebuild a config from :meth:`to_dict` output.  Every field's
        kind is checked and unknown keys are rejected, so a bad document
        or config drift fails here, loudly, not later in a worker."""
        return cls(**check(Table("FarmConfig", cls.FIELDS), data))

    def __repr__(self) -> str:
        return (f"<FarmConfig seed={self.seed} "
                f"inbound={self.inbound_mode.value} "
                f"telemetry={self.telemetry}>")


class Subfarm:
    """One independent habitat: router + containment server + services."""

    def __init__(self, farm: "Farm", name: str, index: int) -> None:
        self.farm = farm
        self.name = name
        self.index = index
        sim = farm.sim

        # Address plan: inmates in 10.(100+i).0.0/16, services in
        # 10.3.(i).0/24 (the paper's figures use 10.3.x service space).
        self.internal_network = IPv4Network(f"10.{100 + index}.0.0/16")
        self.gateway_ip = IPv4Address(f"10.{100 + index}.0.1")
        self.service_network = IPv4Network(f"10.3.{index}.0/24")
        self._next_service_host = 2

        internal_pool = AddressPool([self.internal_network],
                                    reserved=[self.gateway_ip])
        self.nat = NatTable(internal_pool, farm.global_pool,
                            inbound_mode=farm.config.inbound_mode,
                            telemetry=sim.telemetry, subfarm=name)
        self.safety = SafetyFilter(
            farm.config.safety_max_flows_per_window,
            farm.config.safety_max_flows_per_destination,
            farm.config.safety_window,
            telemetry=sim.telemetry, subfarm=name,
        )

        self.cs_ip = IPv4Address(f"10.3.{index}.1")
        self.dns_ip = IPv4Address(f"10.3.{index}.53")

        self.router = SubfarmRouter(
            sim=sim,
            name=name,
            vlan_ids=set(),
            nat=self.nat,
            safety=self.safety,
            cs_ip=self.cs_ip,
            cs_tcp_port=CS_DEFAULT_PORT,
            cs_udp_port=CS_DEFAULT_PORT,
            gateway_ip=self.gateway_ip,
            dns_ip=self.dns_ip,
            egress=farm.gateway,
            control_pool=farm.control_pool,
        )
        farm.gateway.add_router(self.router)
        self.router.flowtable_idle_timeout = \
            farm.config.flowtable_idle_timeout
        self.router.flowtable_hard_timeout = \
            farm.config.flowtable_hard_timeout
        self.router.barrier.policy = farm.config.malice_policy
        self.router.barrier.quarantine_max_frames = \
            farm.config.quarantine_max_frames

        # Containment server: a host on the service segment plus an
        # out-of-band interface on the management network (§5.5).
        self.cs_host = Host(sim, f"{name}-cs", ip=self.cs_ip)
        farm.gateway.attach_service_host(self.router, self.cs_host)
        self.cs_mgmt_host = farm.add_management_host(f"{name}-cs-mgmt")
        messenger = LifecycleMessenger(self.cs_mgmt_host,
                                       farm.controller_ip, CONTROLLER_PORT)

        self.policy_map = PolicyMap(default=DefaultDeny())
        self.services: Dict[str, Tuple[IPv4Address, int]] = {}
        self.containment_server = ContainmentServer(
            sim=sim,
            host=self.cs_host,
            policy_map=self.policy_map,
            services=self.services,
            lifecycle=messenger,
            subfarm=self,
        )
        self.trigger_engine = TriggerEngine(
            sim, lifecycle=self.containment_server.issue_lifecycle
        )
        self.containment_server.attach_triggers(self.trigger_engine)
        # Gateway and server drops land in one shared ledger.
        self.containment_server.barrier = self.router.barrier

        # DNS resolver service host (restricted broadcast domain).
        self.resolver_host = Host(sim, f"{name}-dns", ip=self.dns_ip)
        farm.gateway.attach_service_host(self.router, self.resolver_host,
                                         trusted=True)
        self.resolver = RecursiveResolver(
            self.resolver_host, upstream_ip=farm.authoritative_dns_ip
        )

        self.inmates: Dict[int, Inmate] = {}
        self.sinks: Dict[str, object] = {}
        self.extra_containment_servers: List[ContainmentServer] = []

        # Resilience (verdict deadlines, CS failover, fail-closed
        # pending policy): opt-in via config.verdict_deadline.
        self._cs_servers: Dict[IPv4Address, ContainmentServer] = {
            self.cs_ip: self.containment_server,
        }
        self.resilience = None
        if farm.config.verdict_deadline is not None:
            self._enable_resilience()

    # ------------------------------------------------------------------
    # Resilience (repro.gateway.failover)
    # ------------------------------------------------------------------
    def _enable_resilience(self) -> None:
        from repro.gateway.failover import (
            CsFailoverPool,
            ResilienceConfig,
            RouterResilience,
        )

        config = self.farm.config
        rconfig = ResilienceConfig(
            verdict_deadline=config.verdict_deadline,
            verdict_retries=config.verdict_retries,
            retry_backoff=config.retry_backoff,
            pending_policy=config.pending_policy,
        )
        pool = CsFailoverPool(self.farm.sim, self.router, rconfig,
                              prober=self._probe_cs)
        self.resilience = RouterResilience(
            self.farm.sim, self.router, rconfig, pool, self.name,
            trigger_engine=self.trigger_engine,
        )
        self.router.resilience = self.resilience

    def _probe_cs(self, ip: IPv4Address) -> bool:
        """Health probe: would this containment server answer now?"""
        server = self._cs_servers.get(ip)
        return server is not None and server.responsive()

    def set_pending_policy(self, policy: str) -> None:
        """Per-subfarm override of what happens to flows whose verdict
        never arrives: ``"drop"`` (fail closed, default) or
        ``"forward"`` (fail open — for subfarms whose study would lose
        more from dropped flows than from briefly unconstrained ones;
        the safety filter stays authoritative either way)."""
        if policy not in ("drop", "forward"):
            raise ValueError(
                f"pending policy must be 'drop' or 'forward', "
                f"not {policy!r}")
        if self.resilience is None:
            raise RuntimeError(
                "resilience is not enabled (set config.verdict_deadline)")
        self.resilience.config.pending_policy = policy

    # ------------------------------------------------------------------
    # Services
    # ------------------------------------------------------------------
    def _allocate_service_ip(self) -> IPv4Address:
        ip = IPv4Address(
            self.service_network.network + self._next_service_host
        )
        self._next_service_host += 1
        return ip

    def add_service_host(self, name: str, trusted: bool = False,
                         accept_any_ip: bool = False) -> Host:
        """Create and wire a bare service host; callers attach apps."""
        host = Host(self.farm.sim, f"{self.name}-{name}",
                    ip=self._allocate_service_ip())
        host.accept_any_ip = accept_any_ip
        self.farm.gateway.attach_service_host(self.router, host,
                                              trusted=trusted)
        return host

    def register_service(self, name: str, ip: IPv4Address,
                         port: int) -> None:
        """Expose a service to policies by name (Figure 6 sections)."""
        self.services[name] = (IPv4Address(ip), port)

    def add_catchall_sink(self, name: str = "sink") -> CatchAllSink:
        host = self.add_service_host(name, accept_any_ip=True)
        sink = CatchAllSink(host)
        host.udp.bind_any(sink._datagram)
        self.sinks[name] = sink
        self.register_service(name, host.ip, 0)
        return sink

    def set_cs_service_time(self, service_time: float) -> None:
        """Enable the §7.2 processing model on every containment
        server in this subfarm."""
        self.containment_server.service_time = service_time
        for server in self.extra_containment_servers:
            server.service_time = service_time

    def add_containment_servers(self, count: int,
                                service_time: float = 0.0):
        """Grow the subfarm into containment-cluster mode (§7.2).

        Adds ``count`` additional servers sharing this subfarm's
        policy map and services; the router spreads inmates across the
        cluster (sticky per VLAN).  Returns the full cluster.
        """
        from repro.core.cluster import ContainmentServerCluster

        self.containment_server.service_time = service_time
        for index in range(count):
            host = self.add_service_host(
                f"cs{index + 2}", trusted=False)
            server = ContainmentServer(
                sim=self.farm.sim,
                host=host,
                policy_map=self.policy_map,
                services=self.services,
                lifecycle=self.containment_server.lifecycle,
                subfarm=self,
                service_time=service_time,
            )
            server.attach_triggers(self.trigger_engine)
            server.barrier = self.router.barrier
            self.extra_containment_servers.append(server)
            self.router.add_containment_server(host.ip)
            self._cs_servers[host.ip] = server
            injector = self.farm.fault_injector
            if injector is not None:
                injector.attach_server(self, server, len(
                    self.extra_containment_servers))
        return ContainmentServerCluster(
            [self.containment_server] + self.extra_containment_servers
        )

    def add_smtp_sink(self, name: str = "smtp_sink",
                      **kwargs) -> SmtpSink:
        host = self.add_service_host(name, accept_any_ip=True)
        sink = SmtpSink(host, **kwargs)
        self.sinks[name] = sink
        self.register_service(name, host.ip, 0)
        return sink

    # ------------------------------------------------------------------
    # Policies
    # ------------------------------------------------------------------
    def assign_policy(self, policy: ContainmentPolicy,
                      first_vlan: int, last_vlan: Optional[int] = None) -> None:
        policy.services = self.services
        self.policy_map.assign(first_vlan, last_vlan or first_vlan, policy)

    def set_default_policy(self, policy: ContainmentPolicy) -> None:
        policy.services = self.services
        self.policy_map.default = policy

    # ------------------------------------------------------------------
    # Inmates
    # ------------------------------------------------------------------
    def create_inmate(
        self,
        image_factory: ImageFactory,
        backend: Optional[HostingBackend] = None,
        policy: Optional[ContainmentPolicy] = None,
        autostart: bool = True,
        vlan: Optional[int] = None,
    ) -> Inmate:
        if vlan is None:
            vlan = self.farm.vlan_pool.allocate()
        else:
            self.farm.vlan_pool.allocate_specific(vlan)
        self.router.vlan_ids.add(vlan)
        self.farm.gateway.bind_vlan(vlan, self.router)
        inmate = Inmate(self.farm.sim, vlan, self.farm.inmate_switch,
                        image_factory, backend)
        self.inmates[vlan] = inmate
        self.farm.controller.register(inmate)
        if self.farm.fault_injector is not None:
            self.farm.fault_injector.attach_inmate(self, inmate)
        if policy is not None:
            self.assign_policy(policy, vlan)
        if autostart:
            inmate.start()
        return inmate

    def export_traces(self, directory: str) -> Dict[str, str]:
        """Write this subfarm's inmate-side trace (and the gateway's
        upstream trace) as real pcap files — §5.6's two-pronged
        recording, ready for sharing.  The inmate-side capture uses
        the unroutable internal addresses, giving the "immediate
        anonymity" the paper leans on for data sharing."""
        import os

        from repro.net.capture import write_pcap

        os.makedirs(directory, exist_ok=True)
        paths = {}
        inmate_path = os.path.join(directory, f"{self.name}-inmate.pcap")
        write_pcap(inmate_path, self.router.trace.records)
        paths["inmate"] = inmate_path
        upstream_path = os.path.join(directory, "upstream.pcap")
        write_pcap(upstream_path, self.farm.gateway.upstream_trace.records)
        paths["upstream"] = upstream_path
        if self.router.barrier.quarantine:
            quarantine_path = os.path.join(
                directory, f"{self.name}-quarantine.pcap")
            self.router.barrier.export_quarantine(quarantine_path)
            paths["quarantine"] = quarantine_path
        return paths

    def remove_inmate(self, vlan: int) -> None:
        inmate = self.inmates.pop(vlan, None)
        if inmate is None:
            return
        inmate.terminate()
        self.farm.controller.unregister(vlan)
        self.router.forget_inmate(vlan)
        self.router.vlan_ids.discard(vlan)
        self.farm.gateway.unbind_vlan(vlan)
        self.farm.vlan_pool.release(vlan)
        self.nat.unbind(vlan)

    def __repr__(self) -> str:
        return f"<Subfarm {self.name} inmates={len(self.inmates)}>"


class Farm:
    """The complete GQ deployment."""

    def __init__(self, config: Optional[FarmConfig] = None) -> None:
        self.config = config or FarmConfig()
        self.sim = Simulator(seed=self.config.seed)

        # Telemetry must attach before any component binds instruments:
        # everything downstream discovers it through sim.telemetry.
        self.telemetry_snapshots: List[dict] = []
        if self.config.telemetry:
            from repro.obs.telemetry import Telemetry

            self.sim.attach_telemetry(
                Telemetry(clock=lambda: self.sim.now))
            interval = self.config.telemetry_snapshot_interval
            if interval is not None and interval > 0:
                self._schedule_snapshot(interval)

        # Decision journal (the flight recorder): like telemetry, it
        # must attach before any component is built — routers, barriers
        # and servers capture sim.journal at construction.  A live
        # journal records flow-level decisions only (never per-packet
        # work) and, when journal_sample_interval is set, schedules a
        # periodic gauge/counter sampler into fixed-interval rings.
        if self.config.journal:
            from repro.obs.journal import Journal

            self.sim.attach_journal(Journal(
                clock=lambda: self.sim.now,
                capacity=self.config.journal_capacity,
            ))
            interval = self.config.journal_sample_interval
            if interval is not None and interval > 0:
                self._schedule_journal_samples(interval)

        # Fault plane: built only for a non-empty plan so a default
        # farm registers no fault telemetry, draws no RNG streams, and
        # schedules no events — digests stay byte-identical.
        plan = self.config.fault_plan
        self.fault_injector: Optional[FaultInjector] = (
            None if plan.is_empty else FaultInjector(self.sim, plan)
        )

        self.backbone = Router(self.sim, "internet")
        self.gateway = Gateway(self.sim)
        self.inmate_switch = Switch(self.sim, "inmate-net")
        self.gateway.attach_trunk(self.inmate_switch)
        # Batched trunk ingest (docs/PERFORMANCE.md): opt-in, so the
        # default farm's delivery schedule is untouched.
        if self.config.batch_window is not None:
            self.gateway.trunk_port.coalesce = self.sim
            if self.config.batch_window > 0:
                self.gateway.trunk_port.link.batch_window = \
                    self.config.batch_window
        self.gateway.attach_upstream(
            self.backbone,
            self.config.global_networks + [self.config.control_network],
        )

        self.global_pool = AddressPool(self.config.global_networks)
        self.control_pool = AddressPool([self.config.control_network])
        self.vlan_pool = VlanPool(first=2)

        # Management network: controller host plus containment-server
        # management interfaces, all on one switch behind the gateway.
        self.mgmt_switch = Switch(self.sim, "mgmt-net")
        self._next_mgmt_host = 2
        self.controller_ip = IPv4Address("172.16.0.1")
        self.controller_host = Host(self.sim, "inmate-controller",
                                    ip=self.controller_ip, prefix_len=16)
        Link(self.sim, self.controller_host.attach_port(),
             self.mgmt_switch.attach_port(access_vlan=1))
        self.controller = InmateController(
            self.sim,
            on_action=self._on_lifecycle,
            retry_limit=self.config.lifecycle_retry_limit,
            retry_backoff=self.config.lifecycle_retry_backoff,
        )
        self.controller.bind(self.controller_host)

        # The simulated external universe's authoritative DNS: wired in
        # lazily by repro.world; None means resolvers answer only from
        # their static zones.
        self.authoritative_dns_ip: Optional[IPv4Address] = None

        self.subfarms: Dict[str, Subfarm] = {}

    # ------------------------------------------------------------------
    def create_subfarm(self, name: str) -> Subfarm:
        if name in self.subfarms:
            raise ValueError(f"subfarm {name!r} already exists")
        subfarm = Subfarm(self, name, index=len(self.subfarms))
        self.subfarms[name] = subfarm
        if self.fault_injector is not None:
            self.fault_injector.attach_subfarm(subfarm)
        return subfarm

    def add_management_host(self, name: str) -> Host:
        ip = IPv4Address(f"172.16.0.{self._next_mgmt_host}")
        self._next_mgmt_host += 1
        host = Host(self.sim, name, ip=ip, prefix_len=16)
        Link(self.sim, host.attach_port(),
             self.mgmt_switch.attach_port(access_vlan=1))
        return host

    def add_external_host(self, name: str, ip: str,
                          latency: float = 0.02) -> Host:
        """Create a host in the simulated outside world."""
        host = Host(self.sim, name, ip=IPv4Address(ip))
        self.backbone.attach_host(host, latency=latency)
        return host

    def add_gre_tunnel(self, donated_cidr: str, pop_ip: str):
        """Grow the farm's global address space through a GRE tunnel
        to a third-party point of presence (§7.2).

        Returns (gateway endpoint, PoP).  The donated prefix joins the
        global NAT pool; new inmates draw from it once the original
        /24s are exhausted.
        """
        from repro.gateway.tunnel import GreTunnelEndpoint
        from repro.world.gre_pop import GrePop

        donated = IPv4Network(donated_cidr)
        tunnel_local = self.control_pool.allocate()
        endpoint = GreTunnelEndpoint(tunnel_local, IPv4Address(pop_ip),
                                     [donated])
        self.gateway.add_tunnel(endpoint)
        pop = GrePop(self.sim, self.backbone, IPv4Address(pop_ip),
                     [donated], tunnel_local)
        self.global_pool.add_network(donated)
        return endpoint, pop

    def _on_lifecycle(self, action: str, vlan: int) -> None:
        """Clear gateway state when an inmate is recycled."""
        journal = self.sim.journal
        if journal.enabled:
            journal.record("lifecycle", vlan=vlan, action=action)
        if action in ("revert", "terminate", "stop"):
            router = self.gateway.router_for_vlan(vlan)
            if router is not None:
                router.forget_inmate(vlan)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    @property
    def telemetry(self):
        """The farm-wide telemetry domain (a no-op stub when the
        ``telemetry`` config flag is off)."""
        return self.sim.telemetry

    def telemetry_snapshot(self, include_traces: bool = True) -> dict:
        """Capture a point-in-time snapshot of every metric (schema
        ``gq.telemetry/2``; see repro.obs.export).

        ``include_traces`` is accepted and ignored: snapshots hold no
        traces, but the frozen ``benchmarks/ledger`` still passes it —
        to be removed by the ledger-refresh PR."""
        from repro.obs.export import snapshot

        return snapshot(self.sim.telemetry)

    def _schedule_snapshot(self, interval: float) -> None:
        def capture() -> None:
            self.telemetry_snapshots.append(self.telemetry_snapshot())
            self.sim.schedule(interval, capture, label="telemetry-snapshot")

        self.sim.schedule(interval, capture, label="telemetry-snapshot")

    # ------------------------------------------------------------------
    # Decision journal
    # ------------------------------------------------------------------
    @property
    def journal(self):
        """The farm-wide decision journal (NULL_JOURNAL when the
        ``journal`` config flag is off)."""
        return self.sim.journal

    def journal_snapshot(self) -> dict:
        """JSON-safe view of the decision journal (schema
        ``gq.journal/1``); see repro.obs.journal."""
        return self.sim.journal.snapshot()

    def _schedule_journal_samples(self, interval: float) -> None:
        """Periodic time-series sampling of key farm gauges/counters
        into the journal's fixed-interval rings.  Only scheduled when
        the journal is live, so disabled runs see no extra events."""
        def sample() -> None:
            journal = self.sim.journal
            journal.sample("sim.events", self.sim.events_processed)
            journal.sample("sim.queue.depth", self.sim.pending)
            journal.sample("journal.recorded", journal.recorded)
            for name in sorted(self.subfarms):
                counters = self.subfarms[name].router.counters
                journal.sample(f"router.{name}.flows_created",
                               counters.get("flows_created", 0))
                journal.sample(f"router.{name}.packets_relayed",
                               counters.get("packets_relayed", 0))
            self.sim.schedule(interval, sample, label="journal-sample")

        self.sim.schedule(interval, sample, label="journal-sample")

    # ------------------------------------------------------------------
    def run(self, until: float, max_events: Optional[int] = None) -> float:
        """Advance the whole deployment to virtual time ``until``."""
        return self.sim.run(until=until, max_events=max_events)

    def __repr__(self) -> str:
        return f"<Farm subfarms={list(self.subfarms)} t={self.sim.now:.1f}>"
