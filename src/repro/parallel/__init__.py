"""Sharded campaign execution: parallel farm runs, deterministic merge.

GQ's subfarms are independent habitats so that experiments can proceed
in parallel (§3); this package gives the reproduction the same
property at the *campaign* level — seed sweeps, config sweeps, and
named experiments fan out across worker processes on one or many
hosts and merge back into one deterministic result.

* :mod:`repro.parallel.campaign` — :class:`Campaign`/:class:`ShardSpec`
  descriptions and :func:`derive_seed`,
* :mod:`repro.parallel.pool` — the scheduler (:func:`run_campaign`):
  one FIFO shard queue that idle workers take from, each shard on at
  most one worker, per-shard timeouts, crash isolation,
* :mod:`repro.parallel.transport` — the one wire (length-prefixed
  JSON frames over a stream socket) and where a slot's far end comes
  from: :class:`LocalTransport` (spawned here, a socketpair) or
  :class:`SocketTransport` (spawned by a
  ``python -m repro.parallel.worker`` host agent),
* :mod:`repro.parallel.worker` — shard execution, the slot process
  every transport runs, and the multi-host worker agent,
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
from repro.parallel.transport import (
    LocalTransport,
    SocketTransport,
    TransportError,
    local_agents,
    start_local_agent,
)
from repro.parallel.worker import execute_spec, host_info

__all__ = [
    "Campaign",
    "CampaignResult",
    "LocalTransport",
    "ShardResult",
    "ShardSpec",
    "SocketTransport",
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
