"""Sharded campaign execution: parallel farm runs, deterministic merge.

GQ's subfarms are independent habitats so that experiments can proceed
in parallel (§3); this package gives the reproduction the same
property at the *campaign* level — seed sweeps, config sweeps, and
named experiments fan out across worker processes on one or many
hosts and merge back into one deterministic result.

* :mod:`repro.parallel.campaign` — :class:`Campaign`/:class:`ShardSpec`
  descriptions and :func:`derive_seed`,
* :mod:`repro.parallel.topology` — declarative farm-of-farms layouts
  lowered by compiler passes into a concrete :class:`Placement`,
* :mod:`repro.parallel.pool` — the adaptive work-stealing scheduler
  (:func:`run_campaign`): shared shard queue, per-worker cost
  estimates, speculative tail re-dispatch, per-shard timeouts, crash
  isolation,
* :mod:`repro.parallel.transport` — how shards reach workers:
  :class:`LocalTransport` (warm spawn pool) and
  :class:`SocketTransport` (length-prefixed JSON frames to
  ``python -m repro.parallel.worker`` host agents),
* :mod:`repro.parallel.worker` — shard execution and the multi-host
  worker agent,
* :mod:`repro.parallel.merge` — the ordered merge and campaign digest,
* :mod:`repro.parallel.tasks` — reference shard tasks.

See ``docs/PARALLELISM.md`` for the sharding model, the wire protocol,
and the determinism contract.
"""

from repro.parallel.campaign import (
    Campaign,
    ShardSpec,
    derive_seed,
    resolve_task,
    task_name,
)
from repro.parallel.merge import CampaignResult, campaign_digest
from repro.parallel.pool import ShardResult, run_campaign
from repro.parallel.topology import (
    FarmTopology,
    HostSpec,
    Placement,
    TopologyError,
)
from repro.parallel.transport import (
    LocalTransport,
    SocketTransport,
    Transport,
    TransportError,
    local_agents,
    start_local_agent,
)
from repro.parallel.worker import execute_spec, host_info

__all__ = [
    "Campaign",
    "CampaignResult",
    "FarmTopology",
    "HostSpec",
    "LocalTransport",
    "Placement",
    "ShardResult",
    "ShardSpec",
    "SocketTransport",
    "TopologyError",
    "Transport",
    "TransportError",
    "campaign_digest",
    "derive_seed",
    "execute_spec",
    "host_info",
    "local_agents",
    "resolve_task",
    "run_campaign",
    "start_local_agent",
    "task_name",
]
