"""Ordered merge of per-shard results into one campaign result.

The merge is the determinism anchor: shard results may arrive in any
order from any number of workers, but the merge always

* orders shards by index,
* folds per-shard determinism digests into one **campaign digest**
  (sha256 over ``"index:shard_digest"`` lines in index order), and
* merges shard telemetry and journal snapshots with a ``shard=N``
  label on every identity (:func:`repro.obs.merge.merge`),

so a parallel run of a campaign is byte-identical to a serial run of
the same spec — the property the benchmark and the parity tests
assert.

Shard payload conventions (all optional):

``digest``
    the shard's own determinism digest (hex string); payloads without
    one are digested canonically (sorted-key JSON).
``metrics``
    a flat ``{name: number}`` dict; merged by summation into
    ``merged["metrics"]``.
``telemetry``
    a :func:`repro.obs.export.snapshot` dict; merged shard-labeled
    into ``merged["telemetry"]``.
``journal``
    a :meth:`repro.obs.journal.Journal.snapshot` dict; merged
    shard-labeled (the same :func:`repro.obs.merge.merge`) into
    ``merged["journal"]``, with the merged journal's digest in
    ``merged["journal_digest"]``.
``certificate``
    an isolation certificate (schema ``gq.verify/2``); per-shard
    certificates merge deterministically
    (:func:`repro.verify.merge_certificates` — shards sorted by
    label, grants deduplicated) into a campaign certificate under
    ``merged["certificate"]``.  The merge is order-independent, so a
    serial and a parallel run of the same spec produce the same
    campaign-certificate digest.  Like ``hosts``/``scheduler``, the
    merged certificate stays outside the campaign digest (shard
    certificates already ride inside shard payloads).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

from repro.obs.journal import journal_digest
from repro.obs.merge import merge

__all__ = ["CampaignResult", "campaign_digest", "merge_results"]


def _payload_digest(payload: dict) -> str:
    digest = payload.get("digest")
    if isinstance(digest, str) and digest:
        return digest
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def campaign_digest(shard_results) -> str:
    """Fold per-shard digests, in index order, into one hex digest."""
    h = hashlib.sha256()
    for result in sorted(shard_results, key=lambda r: r.index):
        if result.ok:
            h.update(f"{result.index}:{_payload_digest(result.payload)}\n"
                     .encode())
        else:
            kind = (result.error or {}).get("kind", "failed")
            h.update(f"{result.index}:failed:{kind}\n".encode())
    return h.hexdigest()


class CampaignResult:
    """Everything one campaign run produced, merge included."""

    def __init__(self, name: str, spec_digest: str,
                 shard_results: List, workers: int,
                 wall_seconds: float, merged: dict) -> None:
        self.name = name
        self.spec_digest = spec_digest
        self.shard_results = sorted(shard_results, key=lambda r: r.index)
        self.workers = workers
        self.wall_seconds = wall_seconds
        self.merged = merged
        self.digest = campaign_digest(self.shard_results)

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.shard_results)

    @property
    def failures(self) -> List[dict]:
        return [
            {"shard": result.index, "label": result.label,
             **(result.error or {"kind": "unknown"})}
            for result in self.shard_results if not result.ok
        ]

    def payloads(self) -> List[Optional[dict]]:
        """Per-shard payloads in index order (``None`` for failures)."""
        return [result.payload for result in self.shard_results]

    def to_dict(self) -> dict:
        return {
            "campaign": self.name,
            "spec_digest": self.spec_digest,
            "digest": self.digest,
            "workers": self.workers,
            "wall_seconds": round(self.wall_seconds, 4),
            "ok": self.ok,
            "failures": self.failures,
            "merged": self.merged,
            "shards": [result.to_dict() for result in self.shard_results],
        }

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"{len(self.failures)} failed"
        return (f"<CampaignResult {self.name!r} "
                f"shards={len(self.shard_results)} {state} "
                f"workers={self.workers}>")


def merge_results(campaign, shard_results, workers: int,
                  wall_seconds: float,
                  hosts: Optional[Dict[str, dict]] = None,
                  scheduler_stats: Optional[dict] = None
                  ) -> CampaignResult:
    """Aggregate shard payloads into the campaign-level view.

    ``hosts`` is the scheduling-honesty record: per worker host, the
    ``host_cpus``/``sched_cpus`` its workers reported in their
    ``ready`` frames plus how many workers ran there — persisted under
    ``merged["hosts"]`` so a result file states the hardware its
    wall-clock numbers were measured on.  ``scheduler_stats`` (the
    ``parallel.*`` dispatch/steal counters) lands under
    ``merged["scheduler"]``.  Neither enters the campaign digest: the
    digest covers shard payloads only, so it stays byte-identical
    across serial, local, and socket runs of the same spec.
    """
    merged: dict = {"shards_ok": 0, "shards_failed": 0}
    metrics: Dict[str, float] = {}
    ok_results = []
    for result in sorted(shard_results, key=lambda r: r.index):
        if not result.ok:
            merged["shards_failed"] += 1
            continue
        merged["shards_ok"] += 1
        ok_results.append(result)
        for name, value in ((result.payload or {}).get("metrics")
                            or {}).items():
            if isinstance(value, (int, float)):
                metrics[name] = metrics.get(name, 0) + value
    merged["metrics"] = dict(sorted(metrics.items()))

    def carrying(key: str) -> List:
        """Successful shards whose payload has a dict under ``key``."""
        return [result for result in ok_results
                if isinstance((result.payload or {}).get(key), dict)]

    certified = carrying("certificate")
    if certified:
        from repro.verify import merge_certificates

        merged["certificate"] = merge_certificates(
            [result.payload["certificate"] for result in certified],
            label=campaign.name)
    if hosts:
        merged["hosts"] = {host: dict(info)
                           for host, info in sorted(hosts.items())}
    if scheduler_stats:
        merged["scheduler"] = scheduler_stats
    for key in ("telemetry", "journal"):
        shards = carrying(key)
        if shards:
            merged[key] = merge(
                [result.payload[key] for result in shards],
                labels=[{"shard": str(result.index)}
                        for result in shards],
                sources=[f"shard {result.index}"
                         + (f" @ {result.host}" if result.host else "")
                         for result in shards])
    if "journal" in merged:
        merged["journal_digest"] = journal_digest(merged["journal"])
    return CampaignResult(campaign.name, campaign.spec_digest(),
                          list(shard_results), workers, wall_seconds,
                          merged)
