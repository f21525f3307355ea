"""Campaign descriptions: what a sharded farm run *is*.

GQ's subfarms are independent habitats precisely so experiments can
proceed in parallel (§3, Figure 3); the paper's measurement campaigns
(Table 1, §6) are seed and configuration sweeps over whole-farm runs.
This module describes such a campaign as data: a :class:`Campaign` is
an ordered list of :class:`ShardSpec` entries, each naming a *shard
task* (an importable function), a JSON-safe parameter dict, and a
per-shard timeout.

Because a spec is pure data it can be shipped to a spawn-started
worker process, logged next to the results it produced, and replayed
later — the same property :meth:`repro.farm.FarmConfig.to_dict` gives
individual farm configs.

Determinism contract
--------------------
Shards must be mutually independent: a shard task builds its own farm
from its own parameters and returns a JSON-safe dict.  Seeds for the
shards of one campaign are derived with :func:`derive_seed`, which
splits a base seed into disjoint, order-independent per-shard streams;
running the same campaign serially or across any number of workers
therefore yields byte-identical per-shard payloads, and the merge
stage (:mod:`repro.parallel.merge`) orders by shard index so the
campaign digest is byte-identical too.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.shape import NUMBER, REQUIRED, Table, check

__all__ = [
    "CAMPAIGN",
    "SHARD_SPEC",
    "Campaign",
    "ShardSpec",
    "derive_seed",
    "resolve_task",
    "task_name",
]


def derive_seed(base: int, shard: int) -> int:
    """Derive the RNG seed for ``shard`` from a campaign's base seed.

    Hash-based splitting (rather than ``base + shard``) keeps the
    per-shard streams disjoint even when campaigns themselves use
    neighbouring base seeds: seed 1/shard 0 and seed 0/shard 1 share
    nothing.  Deterministic across processes and platforms.
    """
    data = f"gq.parallel/{base}/{shard}".encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def resolve_task(task: str) -> Callable[..., dict]:
    """Import a shard task from its ``"pkg.module:function"`` name."""
    module_name, _, attr = task.partition(":")
    if not module_name or not attr:
        raise ValueError(
            f"task must look like 'pkg.module:function', got {task!r}")
    module = importlib.import_module(module_name)
    try:
        fn = getattr(module, attr)
    except AttributeError as exc:
        raise ValueError(f"module {module_name!r} has no task {attr!r}") \
            from exc
    if not callable(fn):
        raise ValueError(f"task {task!r} is not callable")
    return fn


def task_name(fn: Callable) -> str:
    """The ``"pkg.module:function"`` name of a module-level callable."""
    return f"{fn.__module__}:{fn.__qualname__}"


#: A shard spec as it travels to a slot.  ``fault`` is the worker
#: fault :func:`repro.parallel.run_campaign` stamps onto the wire copy
#: of a spec; the slot enacts it and :class:`ShardSpec` does not keep it.
SHARD_SPEC = Table("ShardSpec", {
    "index": (int, REQUIRED), "task": (str, REQUIRED),
    "params": (dict, None), "timeout": (NUMBER, None),
    "label": (str, None), "fault": (dict, None)})


class ShardSpec:
    """One unit of campaign work: a task name plus JSON-safe params.

    ``params`` must round-trip through JSON — that is what makes the
    spec shippable to a spawn-started worker and loggable next to its
    result.  ``timeout`` is wall-clock seconds the pool allows the
    shard before killing its worker (``None`` = no limit; only
    enforced when the shard runs in a subprocess).
    """

    __slots__ = ("index", "task", "params", "timeout", "label")

    def __init__(self, index: int, task: str,
                 params: Optional[Dict[str, Any]] = None,
                 timeout: Optional[float] = None,
                 label: Optional[str] = None) -> None:
        self.index = int(index)
        self.task = task
        self.params = dict(params or {})
        self.timeout = timeout
        self.label = label or f"shard-{self.index}"
        try:
            json.dumps(self.params, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"shard {self.index} params are not JSON-safe: {exc}")

    @property
    def seed(self) -> Optional[int]:
        return self.params.get("seed")

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "task": self.task,
            "params": self.params,
            "timeout": self.timeout,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardSpec":
        fields = check(SHARD_SPEC, data)
        del fields["fault"]
        return cls(**fields)

    def __repr__(self) -> str:
        return f"<ShardSpec {self.index} {self.label} task={self.task}>"


CAMPAIGN = Table("Campaign", {
    "name": (str, REQUIRED), "base_seed": (int, 0),
    "metadata": (dict, None), "shards": ([SHARD_SPEC], REQUIRED)})


class Campaign:
    """An ordered, non-empty set of independent shards plus campaign
    identity."""

    def __init__(self, name: str, shards: Sequence[ShardSpec],
                 base_seed: int = 0,
                 metadata: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.shards: List[ShardSpec] = list(shards)
        self.base_seed = base_seed
        self.metadata = dict(metadata or {})
        if not self.shards:
            raise ValueError(f"campaign {name!r} has no shards")
        indices = [spec.index for spec in self.shards]
        if len(set(indices)) != len(indices):
            raise ValueError("shard indices must be unique")

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def seed_sweep(cls, name: str, task: str,
                   params: Optional[Dict[str, Any]] = None,
                   count: Optional[int] = None,
                   seeds: Optional[Iterable[int]] = None,
                   base_seed: int = 0,
                   timeout: Optional[float] = None) -> "Campaign":
        """Same task and params across many seeds.

        Pass explicit ``seeds`` (e.g. from a CLI ``--seeds 0..7``) or a
        ``count``, in which case shard seeds are derived from
        ``base_seed`` via :func:`derive_seed`.
        """
        if seeds is None:
            if count is None:
                raise ValueError("seed_sweep needs seeds= or count=")
            seeds = [derive_seed(base_seed, shard) for shard in range(count)]
        shards = [
            ShardSpec(index, task, dict(params or {}, seed=seed),
                      timeout=timeout, label=f"seed-{seed}")
            for index, seed in enumerate(seeds)
        ]
        return cls(name, shards, base_seed=base_seed,
                   metadata={"kind": "seed_sweep", "task": task})

    @classmethod
    def config_sweep(cls, name: str, task: str,
                     grid: Sequence[Dict[str, Any]],
                     base_seed: int = 0,
                     timeout: Optional[float] = None,
                     labels: Optional[Sequence[str]] = None) -> "Campaign":
        """One shard per parameter dict; each shard that does not pin
        its own ``seed`` gets one derived from ``base_seed``."""
        shards = []
        for index, cell in enumerate(grid):
            params = dict(cell)
            params.setdefault("seed", derive_seed(base_seed, index))
            label = labels[index] if labels else None
            shards.append(ShardSpec(index, task, params,
                                    timeout=timeout, label=label))
        return cls(name, shards, base_seed=base_seed,
                   metadata={"kind": "config_sweep", "task": task})

    # ------------------------------------------------------------------
    def spec_digest(self) -> str:
        """sha256 over the canonical JSON of the whole campaign spec —
        the identity the merge stage stamps on results."""
        blob = json.dumps(
            {
                "name": self.name,
                "base_seed": self.base_seed,
                "shards": [spec.to_dict() for spec in self.shards],
            },
            sort_keys=True,
        ).encode()
        return hashlib.sha256(blob).hexdigest()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "base_seed": self.base_seed,
            "metadata": self.metadata,
            "shards": [spec.to_dict() for spec in self.shards],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Campaign":
        fields = check(CAMPAIGN, data)
        return cls(fields["name"],
                   [ShardSpec.from_dict(s) for s in fields["shards"]],
                   base_seed=fields["base_seed"],
                   metadata=fields["metadata"])

    def __repr__(self) -> str:
        return f"<Campaign {self.name!r} shards={len(self.shards)}>"
