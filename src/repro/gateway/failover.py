"""Fail-closed shim resilience: deadlines, retries, failover, probes.

GQ couples every flow to a containment server across a real link
(§4, Figure 4), which means verdicts can be late, lost, or never
coming.  The paper's stance for that situation is unambiguous — "when
in doubt, drop" — and this module is its mechanism:

* :class:`RouterResilience` arms a **verdict deadline** on every flow
  entering the SHIM phase.  A missed deadline is reported to the
  failover pool and answered with a bounded, exponentially backed-off
  **retry** — re-homed to a standby containment server when one is
  healthier than the flow's current home.  When the retry budget is
  exhausted the flow is resolved by the **pending policy**: DROP by
  default (fail-closed), or FORWARD for operators who prefer
  availability over containment on a particular subfarm.
* :class:`CsFailoverPool` tracks per-server health
  (``healthy → suspect → down``) from deadline reports, recovers
  servers through periodic **health probes** over the management
  network, and declares **degraded mode** when every server is down.
  In degraded mode new flows never wait on a dead link — they are
  resolved immediately by the pending policy — while the
  :class:`~repro.gateway.safety.SafetyFilter` stays authoritative:
  it runs *before* flow admission and is never bypassed, so the
  outbound rate bounds hold no matter how degraded the verdict plane
  is.  Trigger sweeps are suspended for the duration (an outage is
  not inmate inactivity).

Fail-open is best-effort by construction: a TCP flow whose client
handshake never completed has no ISN mapping to hand off, so it is
dropped even under ``pending_policy="forward"`` (the annotation says
why).  UDP flows and handshake-complete TCP flows fail open cleanly.

Everything here is virtual-clock driven and allocation-free until a
deadline actually misses, and none of it exists unless
``FarmConfig.verdict_deadline`` is set — default farms are
byte-identical to pre-resilience builds.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.verdicts import ContainmentDecision, Verdict
from repro.gateway import coupling, handoff
from repro.gateway.flows import FlowPhase, FlowRecord
from repro.net.addresses import IPv4Address
from repro.net.packet import PROTO_TCP, SYN, TCPSegment

__all__ = [
    "CsFailoverPool",
    "ResilienceConfig",
    "RouterResilience",
    "fail_open_possible",
    "HEALTHY",
    "SUSPECT",
    "DOWN",
]

HEALTHY = "healthy"
SUSPECT = "suspect"
DOWN = "down"

PENDING_POLICIES = ("drop", "forward")


def fail_open_possible(proto: int, handshake_complete: bool) -> bool:
    """Can a verdict-starved flow fail open under
    ``pending_policy="forward"``?

    The single source of truth shared by the live router
    (:meth:`RouterResilience._can_fail_open`) and the isolation
    verifier's transition model (:mod:`repro.verify`): UDP always can;
    a TCP flow only once its client handshake completed and the shim
    was injected — before that there is no ISN mapping to hand off, so
    the flow drops regardless of policy.
    """
    if proto != PROTO_TCP:
        return True
    return handshake_complete


class ResilienceConfig:
    """Knobs for one subfarm's shim resilience."""

    __slots__ = ("verdict_deadline", "verdict_retries", "retry_backoff",
                 "pending_policy", "probe_interval", "failure_threshold")

    def __init__(self, verdict_deadline: float, verdict_retries: int = 2,
                 retry_backoff: float = 2.0, pending_policy: str = "drop",
                 probe_interval: float = 5.0,
                 failure_threshold: int = 2) -> None:
        if verdict_deadline <= 0.0:
            raise ValueError("verdict_deadline must be > 0")
        if pending_policy not in PENDING_POLICIES:
            raise ValueError(
                f"pending_policy must be one of {PENDING_POLICIES}")
        if retry_backoff < 1.0:
            raise ValueError("retry_backoff must be >= 1")
        if verdict_retries < 0:
            raise ValueError("verdict_retries must be >= 0")
        self.verdict_deadline = float(verdict_deadline)
        self.verdict_retries = int(verdict_retries)
        self.retry_backoff = float(retry_backoff)
        self.pending_policy = pending_policy
        self.probe_interval = float(probe_interval)
        self.failure_threshold = max(1, int(failure_threshold))


class CsFailoverPool:
    """Health state machine over a router's containment-server list.

    ``healthy`` servers take new flows as usual (sticky by VLAN); a
    missed verdict deadline moves a server to ``suspect`` and, at
    ``failure_threshold`` misses, to ``down``.  Down and suspect
    servers are probed every ``probe_interval`` virtual seconds via
    the ``prober`` callable (wired by the subfarm to the server's
    management-network health check); a passing probe restores
    ``healthy``.  All servers down ⇒ *degraded mode* (callbacks fire
    on entry and exit)."""

    def __init__(self, sim, router, config: ResilienceConfig,
                 prober: Callable[[IPv4Address], bool]) -> None:
        self.sim = sim
        self.router = router
        self.config = config
        self.prober = prober
        self.on_degraded: Optional[Callable[[], None]] = None
        self.on_recovered: Optional[Callable[[], None]] = None
        self._states: Dict[IPv4Address, str] = {}
        self._failures: Dict[IPv4Address, int] = {}
        self.transitions: List[list] = []  # [time, ip, state]
        self.probes = 0
        self.degraded_intervals: List[list] = []  # [start, end|None]
        self._probe_armed = False

    # ------------------------------------------------------------------
    def state(self, ip: IPv4Address) -> str:
        return self._states.get(ip, HEALTHY)

    @property
    def degraded(self) -> bool:
        servers = self.router._cs_list
        return bool(servers) and all(
            self._states.get(ip, HEALTHY) == DOWN for ip in servers)

    def select(self, vlan: int) -> Optional[IPv4Address]:
        """Sticky-preferred selection skipping down servers; ``None``
        when every server is down (degraded)."""
        servers = self.router._cs_list
        count = len(servers)
        base = vlan % count
        for offset in range(count):
            ip = servers[(base + offset) % count]
            if self._states.get(ip, HEALTHY) != DOWN:
                return ip
        return None

    # ------------------------------------------------------------------
    def report_timeout(self, ip: IPv4Address) -> None:
        was_degraded = self.degraded
        failures = self._failures.get(ip, 0) + 1
        self._failures[ip] = failures
        if failures >= self.config.failure_threshold:
            self._set_state(ip, DOWN)
        else:
            self._set_state(ip, SUSPECT)
        self._arm_probe()
        if not was_degraded and self.degraded:
            self.degraded_intervals.append([self.sim.now, None])
            if self.on_degraded is not None:
                self.on_degraded()

    def report_verdict(self, ip: IPv4Address) -> None:
        """A genuine verdict arrived from ``ip`` — it is alive."""
        if self._states.get(ip, HEALTHY) == HEALTHY \
                and not self._failures.get(ip):
            return
        self._mark_healthy(ip)

    def _mark_healthy(self, ip: IPv4Address) -> None:
        was_degraded = self.degraded
        self._failures[ip] = 0
        self._set_state(ip, HEALTHY)
        if was_degraded and not self.degraded:
            if self.degraded_intervals \
                    and self.degraded_intervals[-1][1] is None:
                self.degraded_intervals[-1][1] = self.sim.now
            if self.on_recovered is not None:
                self.on_recovered()

    def _set_state(self, ip: IPv4Address, state: str) -> None:
        if self._states.get(ip, HEALTHY) != state:
            self._states[ip] = state
            self.transitions.append([self.sim.now, str(ip), state])
            journal = self.sim.journal
            if journal.enabled:
                journal.record("cs.state", server=str(ip), state=state)

    # ------------------------------------------------------------------
    # Health probes: armed only while a server is unhealthy, so a
    # fault-free farm schedules nothing.
    # ------------------------------------------------------------------
    def _arm_probe(self) -> None:
        if self._probe_armed:
            return
        if all(self._states.get(ip, HEALTHY) == HEALTHY
               for ip in self.router._cs_list):
            return
        self._probe_armed = True
        self.sim.schedule(self.config.probe_interval, self._probe,
                          label="cs-health-probe")

    def _probe(self) -> None:
        self._probe_armed = False
        for ip in list(self.router._cs_list):
            if self._states.get(ip, HEALTHY) == HEALTHY:
                continue
            self.probes += 1
            if self.prober(ip):
                self._mark_healthy(ip)
        self._arm_probe()

    def degraded_seconds(self, now: float) -> float:
        total = 0.0
        for start, end in self.degraded_intervals:
            total += (end if end is not None else now) - start
        return total


class RouterResilience:
    """Verdict deadlines, bounded retry, and pending-policy resolution
    for one :class:`~repro.gateway.router.SubfarmRouter`."""

    def __init__(self, sim, router, config: ResilienceConfig,
                 pool: CsFailoverPool, subfarm: str,
                 trigger_engine=None) -> None:
        self.sim = sim
        self.router = router
        self.config = config
        self.pool = pool
        self.subfarm = subfarm
        self.trigger_engine = trigger_engine
        # Decision journal (NULL_JOURNAL unless the farm attached one).
        self.journal = sim.journal
        pool.on_degraded = self._enter_degraded
        pool.on_recovered = self._exit_degraded

        self.fail_closed = 0
        self.fail_open = 0
        self.retries = 0
        self.failovers = 0
        self.degraded_refusals = 0

        tel = sim.telemetry
        tel.counter(
            "resilience.fail_closed",
            "Flows resolved by the fail-closed pending policy"
        ).register(lambda: self.fail_closed, subfarm=subfarm)
        tel.counter(
            "resilience.retries", "Shim verdict delivery retries"
        ).register(lambda: self.retries, subfarm=subfarm)
        tel.counter(
            "resilience.failovers",
            "Flows re-homed to a standby containment server"
        ).register(lambda: self.failovers, subfarm=subfarm)
        self._g_degraded = tel.gauge(
            "resilience.degraded",
            "1 while every containment server is down"
        ).bind(subfarm=subfarm)
        self._g_degraded.set(0.0)
        self._h_attempts = tel.histogram(
            "resilience.verdict.attempts",
            "Shim delivery attempts per deadline-missing flow",
            buckets=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0),
        ).bind(subfarm=subfarm)

    # ------------------------------------------------------------------
    # Degraded-mode state machine hooks
    # ------------------------------------------------------------------
    def _enter_degraded(self) -> None:
        self._g_degraded.set(1.0)
        if self.journal.enabled:
            self.journal.record("degraded.entered", subfarm=self.subfarm)
        if self.trigger_engine is not None:
            # An outage is not inmate inactivity: absence-of-activity
            # triggers must not mass-revert the subfarm.
            self.trigger_engine.suspend()

    def _exit_degraded(self) -> None:
        self._g_degraded.set(0.0)
        if self.journal.enabled:
            self.journal.record("degraded.exited", subfarm=self.subfarm)
        if self.trigger_engine is not None:
            self.trigger_engine.resume()

    # ------------------------------------------------------------------
    # New-flow hook (called from admission.new_flow)
    # ------------------------------------------------------------------
    def handle_new_flow(self, record: FlowRecord) -> bool:
        """Pick the flow's containment server.  Returns ``True`` when
        the pool is degraded and the flow was resolved immediately by
        the pending policy (the caller must not open a CS leg)."""
        cs_ip = self.pool.select(record.vlan)
        if cs_ip is not None:
            if cs_ip != record.cs_ip:
                record.cs_ip = cs_ip
                coupling.couple(self.router, record)
            return False
        self.degraded_refusals += 1
        self._apply_pending(record, annotation="containment degraded")
        return True

    def arm(self, record: FlowRecord) -> None:
        """Start the verdict deadline clock for a just-coupled flow."""
        self.sim.schedule(self.config.verdict_deadline, self._check,
                          record, 1, label="verdict-deadline")

    def note_verdict(self, cs_ip: IPv4Address) -> None:
        self.pool.report_verdict(cs_ip)

    # ------------------------------------------------------------------
    # Deadline machinery
    # ------------------------------------------------------------------
    def _check(self, record: FlowRecord, attempt: int) -> None:
        if record.decision is not None \
                or record.phase is not FlowPhase.SHIM:
            return  # verdict arrived, or the flow died some other way
        if self.journal.enabled:
            self.journal.record(
                "failover.deadline",
                flow=self.router._trace_ids.get(record.mux_port),
                vlan=record.vlan, attempt=attempt,
                server=str(record.cs_ip))
        self.pool.report_timeout(record.cs_ip)
        if attempt > self.config.verdict_retries:
            self._h_attempts.observe(float(attempt))
            self._apply_pending(record,
                                annotation="verdict deadline exceeded")
            return
        if self._retry(record):
            return  # resolved inline (pool fully degraded)
        delay = self.config.verdict_deadline \
            * (self.config.retry_backoff ** attempt)
        self.sim.schedule(delay, self._check, record, attempt + 1,
                          label="verdict-deadline")

    def _retry(self, record: FlowRecord) -> bool:
        """One bounded retry.  Returns ``True`` if the flow was
        resolved inline instead (no healthy server left)."""
        target = self.pool.select(record.vlan)
        if target is None:
            self._apply_pending(record, annotation="containment degraded")
            return True
        self.retries += 1
        if self.journal.enabled:
            self.journal.record(
                "failover.retry",
                flow=self.router._trace_ids.get(record.mux_port),
                vlan=record.vlan, target=str(target))
        router = self.router
        if target != record.cs_ip:
            self.failovers += 1
            self._rehome(record, target)
            return False
        if record.orig.proto == PROTO_TCP:
            # Same server: retransmit only while the handshake never
            # completed.  The TCP substrate has no retransmission, so a
            # lost SYN is gone without this; but a duplicate segment on
            # an established leg could corrupt the shim stream, so an
            # established-but-silent leg just waits for the next
            # deadline (or a failover).
            if record.cs_isn is None:
                self._resend_syn(record)
        else:
            self._resend_udp(record)
        return False

    def _rehome(self, record: FlowRecord, target: IPv4Address) -> None:
        """Move a pending flow to a standby containment server."""
        if self.journal.enabled:
            self.journal.record(
                "failover.rehome",
                flow=self.router._trace_ids.get(record.mux_port),
                vlan=record.vlan, source=str(record.cs_ip),
                target=str(target))
        record.cs_ip = target
        if record.orig.proto != PROTO_TCP:
            coupling.couple(self.router, record)
            self._resend_udp(record)
            return
        # If the client already handshook against the old leg, the new
        # SYN-ACK must not reach it — the router completes the fresh
        # handshake itself and replays the shim plus buffered payload
        # (the same replay idiom complete_handoff uses toward enforced
        # destinations).
        record.cs_handshake_replay = record.cs_isn is not None
        record.cs_isn = None
        record.c2s_inj = 0
        record.s2c_rem = 0
        record.shim_injected = False
        record.shim_buffer.clear()
        # The coupled rows again, from scratch, toward the new server.
        coupling.couple(self.router, record)
        self._resend_syn(record)

    def _resend_syn(self, record: FlowRecord) -> None:
        syn = TCPSegment(
            sport=record.orig.orig_port, dport=record.orig.resp_port,
            seq=record.client_isn, flags=SYN,
        )
        coupling.offer(self.router, record, syn)

    def _resend_udp(self, record: FlowRecord) -> None:
        if record.udp_pending:
            coupling.offer(self.router, record, record.udp_pending[0])

    # ------------------------------------------------------------------
    # Pending-policy resolution
    # ------------------------------------------------------------------
    def _apply_pending(self, record: FlowRecord, annotation: str) -> None:
        decision = self._pending_decision(record, annotation)
        if self.journal.enabled:
            self.journal.record(
                "failover.pending",
                flow=self.router._trace_ids.get(record.mux_port),
                vlan=record.vlan, verdict=decision.verdict.label,
                policy=decision.policy, annotation=annotation)
        if decision.verdict is Verdict.DROP:
            self.fail_closed += 1
        else:
            self.fail_open += 1
        handoff.apply_decision(self.router, record, decision)

    def _pending_decision(self, record: FlowRecord,
                          annotation: str) -> ContainmentDecision:
        if self.config.pending_policy == "forward" \
                and self._can_fail_open(record):
            return ContainmentDecision.forward(policy="fail-open",
                                               annotation=annotation)
        return ContainmentDecision.drop(policy="fail-closed",
                                        annotation=annotation)

    @staticmethod
    def _can_fail_open(record: FlowRecord) -> bool:
        return fail_open_possible(
            record.orig.proto,
            record.cs_isn is not None and record.shim_injected)

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-safe degradation summary for reports and shard
        payloads."""
        now = self.sim.now
        pool = self.pool
        return {
            "pending_policy": self.config.pending_policy,
            "verdict_deadline": self.config.verdict_deadline,
            "fail_closed": self.fail_closed,
            "fail_open": self.fail_open,
            "retries": self.retries,
            "failovers": self.failovers,
            "degraded_refusals": self.degraded_refusals,
            "servers": {str(ip): pool.state(ip)
                        for ip in self.router._cs_list},
            "transitions": [list(t) for t in pool.transitions],
            "probes": pool.probes,
            "degraded_intervals": [
                [start, end] for start, end in pool.degraded_intervals],
            "degraded_seconds": round(pool.degraded_seconds(now), 9),
        }
