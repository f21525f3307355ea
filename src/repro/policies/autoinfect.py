"""The auto-infection policy (§6.6).

"Note that we can realize the HTTP server as a REWRITE containment,
simplifying the implementation substantially: the containment server
observes the attempted HTTP connection anyway, and can thus proceed to
impersonate the simple HTTP server needed to serve the infection.  We
implement this as a separate containment class that serves as a base
class for all policies that operate using auto-infection."

VLAN IDs drive sample selection (Figure 6): each VLAN range can carry
its own batch of binaries, served sequentially for batch processing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.policy import (
    Action,
    ContainmentPolicy,
    PolicyContext,
    Rewriter,
    Rule,
    register_policy,
)
from repro.core.verdicts import ContainmentDecision
from repro.malware.corpus import Sample, SampleBatch
from repro.net.addresses import IPv4Address
from repro.net.http import HttpParser, HttpResponse


class _SampleServer(Rewriter):
    """Impersonates the infection HTTP server; serves one sample."""

    def __init__(self, policy: "AutoInfectionPolicy", ctx: PolicyContext,
                 sample: Optional[Sample]) -> None:
        self._policy = policy
        self._ctx = ctx
        self._sample = sample
        self._parser = HttpParser("request")

    def on_open(self, proxy) -> None:
        pass  # impersonation: never connect out

    def on_client_data(self, proxy, data: bytes) -> None:
        for request in self._parser.feed(data):
            if self._sample is None:
                proxy.send_to_client(HttpResponse(404).to_bytes())
                continue
            self._policy.record_serving(self._ctx.vlan_id, self._sample)
            proxy.send_to_client(
                HttpResponse(
                    200,
                    {"Content-Type": "application/octet-stream"},
                    body=self._sample.to_blob(),
                ).to_bytes()
            )

    def on_client_close(self, proxy) -> None:
        proxy.close_client()


@register_policy
class AutoInfectionPolicy(ContainmentPolicy):
    """Base class for all policies using auto-infection.

    Flows to the configured infection address/port get REWRITE
    containment with an impersonating HTTP server — the first rule,
    ahead of whatever subclasses append to ``declare()`` (the base
    declares nothing else, staying faithful to default-deny roots).
    """

    def __init__(self, services=None, config=None) -> None:
        super().__init__(services, config)
        self.infect_address = IPv4Address(
            self.config.get("autoinfect_address", "10.9.8.7"))
        self.infect_port = int(self.config.get("autoinfect_port", 6543))
        self._batches: Dict[Tuple[int, int], SampleBatch] = {}
        self.servings: Dict[int, list] = {}
        self._pending_samples: Dict[tuple, Optional[Sample]] = {}

    # ------------------------------------------------------------------
    # Batch management (Figure 6: "Infection = rustock.100921.*.exe")
    # ------------------------------------------------------------------
    def set_batch(self, first_vlan: int, last_vlan: int,
                  batch: SampleBatch) -> None:
        self._batches[(first_vlan, last_vlan)] = batch

    def set_sample(self, first_vlan: int, last_vlan: int,
                   sample: Sample) -> None:
        self.set_batch(first_vlan, last_vlan,
                       SampleBatch(sample.md5, [sample]))

    def sample_for(self, vlan: int) -> Optional[Sample]:
        for (first, last), batch in self._batches.items():
            if first <= vlan <= last:
                return batch.next_sample()
        return None

    def record_serving(self, vlan: int, sample: Sample) -> None:
        self.servings.setdefault(vlan, []).append(sample)

    # ------------------------------------------------------------------
    def is_infection_flow(self, ctx: PolicyContext) -> bool:
        return (ctx.flow.resp_ip == self.infect_address
                and ctx.flow.resp_port == self.infect_port)

    def declare(self) -> List[Rule]:
        return super().declare() + [Rule(
            Action("rewrite", "autoinfection", build="serve_sample"),
            self.infect_port, dst=self.infect_address)]

    def serve_sample(self, ctx: PolicyContext) -> ContainmentDecision:
        """Pick the sample now so its MD5 rides in the annotation
        (visible in the Figure 7 REWRITE rows) and the rewriter serves
        exactly that binary."""
        sample = self.sample_for(ctx.vlan_id)
        self._pending_samples[(ctx.vlan_id, ctx.flow)] = sample
        annotation = (f"autoinfection {sample.md5}" if sample
                      else "autoinfection (no batch)")
        return self.rewrite(ctx, annotation=annotation)

    def make_rewriter(self, ctx: PolicyContext) -> Rewriter:
        if self.is_infection_flow(ctx):
            sample = self._pending_samples.pop(
                (ctx.vlan_id, ctx.flow), None)
            if sample is None:
                sample = self.sample_for(ctx.vlan_id)
            return _SampleServer(self, ctx, sample)
        return self.make_other_rewriter(ctx)

    def make_other_rewriter(self, ctx: PolicyContext) -> Rewriter:
        """Rewriter for a subclass's own REWRITE rules."""
        return Rewriter()
