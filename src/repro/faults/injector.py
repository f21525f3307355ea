"""Install a :class:`~repro.faults.plan.FaultPlan` into a live farm.

The injector is created by :class:`~repro.farm.Farm` only when the
configured plan is non-empty, so a default farm carries no injector,
draws no RNG streams, schedules no events, and registers no telemetry
families — its digests are byte-identical to a faultless build.

Seams
-----
* **Shim link** — :class:`ShimLinkFaults` sits on
  ``SubfarmRouter.shim_link_faults``.  The router routes every packet
  bound for a containment server through :meth:`ShimLinkFaults.send`
  and every frame arriving *from* one through
  :meth:`ShimLinkFaults.admit_return`; delay, drop, and partition
  specs apply symmetrically.  Delayed delivery is FIFO per direction
  so the TCP substrate never sees reordering.
* **Containment server** — :class:`ServerFaultState` hangs off
  ``ContainmentServer.fault_state``.  A crashed server is *silent*:
  it stops issuing verdicts and the link view drops its traffic both
  ways, so from the gateway's perspective SYNs simply vanish — the
  case that exercises the verdict-deadline → retry → failover →
  fail-closed machinery (a RST would short-circuit it).  A hung
  server holds computed verdicts and flushes them when the hang window
  closes, producing the late verdicts the router must tolerate.
* **Hosting backend** — :class:`LifecycleFaultGate` on
  ``Inmate.lifecycle_faults`` fails revert/boot completions, which the
  :class:`~repro.inmates.controller.InmateController` answers with
  bounded retry.

Worker-process faults never reach the injector; they are stamped onto
shard payloads by :func:`repro.parallel.run_campaign` (see
:meth:`FaultPlan.worker_faults`).
"""

from __future__ import annotations

from typing import Dict, List

from repro.faults.plan import (
    FaultPlan,
    FaultSpec,
    LIFECYCLE_KINDS,
    LINK_KINDS,
    SERVER_KINDS,
)

__all__ = [
    "FaultInjector",
    "LifecycleFaultGate",
    "ServerFaultState",
    "ShimLinkFaults",
]


class ShimLinkFaults:
    """Link-level fault view for one subfarm's shim link."""

    def __init__(self, sim, rng, specs: List[FaultSpec], metric,
                 subfarm: str) -> None:
        self.sim = sim
        self.rng = rng
        self.subfarm = subfarm
        self.partitions = [s for s in specs if s.kind == "shim_partition"]
        self.drops = [s for s in specs if s.kind == "shim_drop"]
        self.delays = [s for s in specs if s.kind == "shim_delay"]
        # Crashed-server silence is enforced here too (both directions);
        # FaultInjector.attach_server registers states by server IP
        # (its 32-bit value: this is consulted per packet).
        self.server_states: Dict[int, "ServerFaultState"] = {}
        self._m_injected = metric
        # Per-direction FIFO horizon for delayed delivery.
        self._fifo_to_cs = 0.0
        self._fifo_from_cs = 0.0

    # ------------------------------------------------------------------
    def _count(self, kind: str) -> None:
        self._m_injected.inc(subfarm=self.subfarm, kind=kind)
        journal = self.sim.journal
        if journal.enabled:
            journal.record("fault.injected", fault=kind,
                           subfarm=self.subfarm)

    def _drop_or_delay(self, now: float, server_ip) -> object:
        """Shared disposition: ``"drop"``, a delay in seconds, or 0."""
        state = self.server_states.get(server_ip.value)
        if state is not None and state.crashed:
            self._count("cs-crash-drop")
            return "drop"
        for spec in self.partitions:
            if spec.active(now):
                self._count("partition-drop")
                return "drop"
        for spec in self.drops:
            if spec.active(now) and self.rng.random() < spec.probability:
                self._count("shim-drop")
                return "drop"
        delay = 0.0
        for spec in self.delays:
            if spec.active(now):
                delay += spec.delay
                if spec.jitter > 0.0:
                    delay += spec.jitter * self.rng.random()
        return delay

    def send(self, cs_ip, packet, emit) -> None:
        """Router → containment server.  ``emit(packet)`` is the
        underlying service-network emission."""
        now = self.sim.now
        disposition = self._drop_or_delay(now, cs_ip)
        if disposition == "drop":
            return
        if disposition > 0.0:
            when = now + disposition
            if when < self._fifo_to_cs:
                when = self._fifo_to_cs
            self._fifo_to_cs = when
            self._count("shim-delay")
            self.sim.schedule_at(when, emit, packet,
                                 label="fault-shim-delay")
            return
        emit(packet)

    def admit_return(self, frame, deliver) -> bool:
        """Containment server → router.  ``True`` means deliver now;
        ``False`` means the frame was dropped or rescheduled (delayed
        frames re-enter through ``deliver(frame)``, which must bypass
        this check)."""
        now = self.sim.now
        disposition = self._drop_or_delay(now, frame.payload.src)
        if disposition == "drop":
            return False
        if disposition > 0.0:
            when = now + disposition
            if when < self._fifo_from_cs:
                when = self._fifo_from_cs
            self._fifo_from_cs = when
            self._count("shim-delay")
            self.sim.schedule_at(when, deliver, frame,
                                 label="fault-shim-delay")
            return False
        return True


class ServerFaultState:
    """Crash/hang/slow behaviour for one containment server."""

    def __init__(self, sim, server, specs: List[FaultSpec], metric,
                 subfarm: str) -> None:
        self.sim = sim
        self.server = server
        self.subfarm = subfarm
        self.crashed = False
        self.crashes = 0
        self.hang_windows: List[FaultSpec] = []
        self.slow_windows: List[FaultSpec] = []
        self.held: List[tuple] = []
        self._m_injected = metric
        for spec in specs:
            if spec.kind == "cs_crash":
                at = max(spec.at, sim.now)
                sim.schedule_at(at, self._crash, label="fault-cs-crash")
                if spec.restore_after is not None:
                    sim.schedule_at(at + spec.restore_after, self._restore,
                                    label="fault-cs-restore")
            elif spec.kind == "cs_hang":
                self.hang_windows.append(spec)
                if spec.end is not None:
                    sim.schedule_at(max(spec.end, sim.now), self._flush_held,
                                    label="fault-cs-hang-end")
            elif spec.kind == "cs_slow":
                self.slow_windows.append(spec)

    # ------------------------------------------------------------------
    def _count(self, kind: str) -> None:
        self._m_injected.inc(subfarm=self.subfarm, kind=kind)
        journal = self.sim.journal
        if journal.enabled:
            journal.record("fault.injected", fault=kind,
                           subfarm=self.subfarm)

    def _crash(self) -> None:
        self.crashed = True
        self.crashes += 1
        # A crash loses any verdicts the hang machinery was holding.
        self.held.clear()
        self._count("cs-crash")

    def _restore(self) -> None:
        self.crashed = False
        self._count("cs-restore")

    def hung(self, now: float) -> bool:
        return any(spec.active(now) for spec in self.hang_windows)

    def extra_service_time(self, now: float) -> float:
        return sum(spec.extra for spec in self.slow_windows
                   if spec.active(now))

    def responsive(self, now: float) -> bool:
        """Would a health probe get an answer right now?"""
        return not self.crashed and not self.hung(now)

    def hold(self, cs_conn, decision) -> None:
        self.held.append((cs_conn, decision))
        self._count("cs-hang-hold")

    def _flush_held(self) -> None:
        held, self.held = self.held, []
        for cs_conn, decision in held:
            self.server.schedule_issue(cs_conn, decision)


class LifecycleFaultGate:
    """Count-limited revert/boot failure gate for one inmate."""

    def __init__(self, sim, specs: List[FaultSpec], metric,
                 subfarm: str) -> None:
        self.sim = sim
        self.subfarm = subfarm
        self._m_injected = metric
        # [spec, remaining budget]; None = unlimited within the window.
        self._specs = [[spec, spec.count] for spec in specs]

    _EVENT_KINDS = {"revert": "revert_fail", "boot": "reboot_fail"}

    def __call__(self, event: str) -> bool:
        """``True`` if the completing ``event`` should fail."""
        now = self.sim.now
        wanted = self._EVENT_KINDS.get(event)
        for entry in self._specs:
            spec, remaining = entry
            if spec.kind != wanted or not spec.active(now):
                continue
            if remaining is not None:
                if remaining <= 0:
                    continue
                entry[1] = remaining - 1
            self._m_injected.inc(subfarm=self.subfarm, kind=spec.kind)
            journal = self.sim.journal
            if journal.enabled:
                journal.record("fault.injected", fault=spec.kind,
                               subfarm=self.subfarm)
            return True
        return False


class FaultInjector:
    """Installs plan specs at farm seams as components are built."""

    def __init__(self, sim, plan: FaultPlan) -> None:
        self.sim = sim
        self.plan = plan
        self._links: Dict[str, ShimLinkFaults] = {}
        self._m_injected = sim.telemetry.counter(
            "faults.injected", "Fault injections applied, by kind")

    def attach_subfarm(self, subfarm) -> None:
        specs = self.plan.for_subfarm(subfarm.name)
        link_specs = [s for s in specs if s.kind in LINK_KINDS]
        server_specs = [s for s in specs if s.kind in SERVER_KINDS]
        if link_specs or server_specs:
            faults = ShimLinkFaults(
                self.sim, self.sim.rng(f"faults/link/{subfarm.name}"),
                link_specs, self._m_injected, subfarm.name)
            subfarm.router.shim_link_faults = faults
            self._links[subfarm.name] = faults
        self.attach_server(subfarm, subfarm.containment_server, 0)

    def attach_server(self, subfarm, server, index: int) -> None:
        specs = [s for s in self.plan.for_subfarm(subfarm.name)
                 if s.kind in SERVER_KINDS and int(s.server) == index]
        if not specs:
            return
        state = ServerFaultState(self.sim, server, specs,
                                 self._m_injected, subfarm.name)
        server.fault_state = state
        link = self._links.get(subfarm.name)
        if link is not None:
            link.server_states[server.host.ip.value] = state

    def attach_inmate(self, subfarm, inmate) -> None:
        specs = [s for s in self.plan.for_subfarm(subfarm.name)
                 if s.kind in LIFECYCLE_KINDS
                 and (s.vlan is None or s.vlan == inmate.vlan)]
        if specs:
            inmate.lifecycle_faults = LifecycleFaultGate(
                self.sim, specs, self._m_injected, subfarm.name)
