"""Declarative farm-of-farms topology, lowered by compiler passes.

GQ scales by replicating subfarms — each an independent habitat (§3,
Figure 3) — across however many physical hosts the experimenter owns.
This module makes that layout *data*: a :class:`FarmTopology` declares
the subfarm count, how subfarms group into shards and the host
inventory; :meth:`FarmTopology.compile` lowers the declaration through
a fixed sequence of named passes (the FireSim topology-with-passes
pattern) into a concrete :class:`Placement`:

``normalize``
    fill defaulted per-subfarm entries and apply explicit overrides.
``validate_hosts``
    host names unique, addresses well-formed, worker caps sane.
``pack_shards``
    group subfarms into campaign shards and assign each shard to a
    host — explicit pins win, the rest round-robin; pinning one shard
    to two hosts or to an unknown host is a compile error.
``validate_placement``
    every shard landed on a known host.

Every pass feeds :meth:`Placement.campaign` or
:meth:`Placement.endpoints`; a pass computing what a farm would be
*built* from (VLAN ranges, containment-server pools, service
placement) arrives together with the code that builds a farm from a
placement.  A failing pass raises :class:`TopologyError` carrying a
structured ``errors`` list (``{"pass", "error", "detail"}`` dicts), so
a bad placement dies loudly at compile time — never as a mystery mid-
campaign.  Both the topology and the compiled placement round-trip
through JSON with stable sha256 digests, and
:meth:`Placement.campaign` derives the :class:`~repro.parallel.campaign.Campaign`
whose shards realise the placement — placement is data the scheduler
consumes, not code.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence

from repro.parallel.campaign import Campaign, ShardSpec, derive_seed

__all__ = [
    "FarmTopology",
    "HostSpec",
    "Placement",
    "TopologyError",
]


class TopologyError(ValueError):
    """A topology failed to compile.

    ``errors`` is the structured form: one ``{"pass": name,
    "error": code, "detail": human_text}`` dict per problem the
    failing pass recorded, so tooling can match on codes instead of
    parsing the message.
    """

    def __init__(self, message: str,
                 errors: Optional[List[dict]] = None) -> None:
        super().__init__(message)
        self.errors: List[dict] = list(errors or [])


def _parse_error(code: str, detail: str) -> TopologyError:
    return TopologyError(detail, errors=[{"pass": "parse", "error": code,
                                          "detail": detail}])


def _reject_unknown_keys(data: dict, allowed: Sequence[str],
                         where: str) -> None:
    if not isinstance(data, dict):
        raise _parse_error("bad_type", f"{where} must be a JSON object, "
                                       f"got {type(data).__name__}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise TopologyError(
            f"unknown {where} keys: {', '.join(unknown)}",
            errors=[{"pass": "parse", "error": "unknown_key",
                     "detail": f"{where} key {key!r}"}
                    for key in unknown])


_REQUIRED = object()


def _field(data: dict, key: str, kind: type, where: str,
           default: Any = _REQUIRED) -> Any:
    """``data[key]`` if it is a ``kind`` (a bool is no int).  A missing
    key takes ``default``; ``null`` is accepted where that is None."""
    if key not in data:
        if default is _REQUIRED:
            raise _parse_error("missing_key",
                               f"{where} key {key!r} is required")
        return default
    value = data[key]
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, kind):
        raise _parse_error("bad_type",
                           f"{where} key {key!r} must be {kind.__name__}, "
                           f"got {type(value).__name__}")
    return value


class HostSpec:
    """One machine in the farm inventory.

    ``address`` is ``"local"`` (slots this process spawns) or
    ``"host:port"`` of a running ``python -m repro.parallel.worker``
    agent.  ``cpus`` and ``max_workers`` are declarations that round-trip
    and ``validate_hosts`` checks; nothing reads them after that, and
    the work queue hands each shard to whichever slot is idle, pinned
    or not (the merged ``hosts`` record says where shards ran).
    """

    __slots__ = ("name", "address", "cpus", "max_workers")

    def __init__(self, name: str, address: str = "local",
                 cpus: Optional[int] = None,
                 max_workers: Optional[int] = None) -> None:
        self.name = str(name)
        self.address = str(address)
        self.cpus = cpus
        self.max_workers = max_workers

    def to_dict(self) -> dict:
        return {"name": self.name, "address": self.address,
                "cpus": self.cpus, "max_workers": self.max_workers}

    @classmethod
    def from_dict(cls, data: dict) -> "HostSpec":
        _reject_unknown_keys(data, ("name", "address", "cpus",
                                    "max_workers"), "host")
        return cls(name=_field(data, "name", str, "host"),
                   address=_field(data, "address", str, "host", "local"),
                   cpus=_field(data, "cpus", int, "host", None),
                   max_workers=_field(data, "max_workers", int, "host",
                                      None))

    def __repr__(self) -> str:
        return f"<HostSpec {self.name} @ {self.address}>"


_TOPOLOGY_KEYS = (
    "name", "subfarms", "hosts", "subfarm_specs",
    "subfarms_per_shard", "inmates_per_subfarm", "metadata",
)
_SUBFARM_KEYS = ("name", "host")
# Every subfarm takes at least one 802.1Q VLAN on the gateway trunk.
_MAX_SUBFARMS = 4094


class FarmTopology:
    """The declarative layer: what the farm-of-farms should look like.

    ``subfarm_specs[i]`` optionally overrides subfarm *i* with
    ``name`` and/or ``host`` (pin to a host name).  Everything else is
    derived by the compile passes.
    """

    def __init__(self, name: str, subfarms: int,
                 hosts: Optional[Sequence[HostSpec]] = None,
                 subfarm_specs: Optional[Sequence[dict]] = None,
                 subfarms_per_shard: int = 1,
                 inmates_per_subfarm: int = 2,
                 metadata: Optional[Dict[str, Any]] = None) -> None:
        self.name = str(name)
        self.subfarms = int(subfarms)
        self.hosts: List[HostSpec] = list(hosts) if hosts \
            else [HostSpec("local")]
        self.subfarm_specs: List[dict] = [dict(s)
                                          for s in (subfarm_specs or [])]
        self.subfarms_per_shard = int(subfarms_per_shard)
        self.inmates_per_subfarm = int(inmates_per_subfarm)
        self.metadata = dict(metadata or {})

    # ------------------------------------------------------------------
    # Serialization — strict both ways, digest-stable
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "subfarms": self.subfarms,
            "hosts": [host.to_dict() for host in self.hosts],
            "subfarm_specs": [dict(s) for s in self.subfarm_specs],
            "subfarms_per_shard": self.subfarms_per_shard,
            "inmates_per_subfarm": self.inmates_per_subfarm,
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FarmTopology":
        _reject_unknown_keys(data, _TOPOLOGY_KEYS, "topology")
        specs = _field(data, "subfarm_specs", list, "topology", None)
        for spec in specs or []:
            _reject_unknown_keys(spec, _SUBFARM_KEYS, "subfarm")
            for key in _SUBFARM_KEYS:
                _field(spec, key, str, "subfarm", None)
        hosts = _field(data, "hosts", list, "topology", None)
        return cls(
            name=_field(data, "name", str, "topology"),
            subfarms=_field(data, "subfarms", int, "topology"),
            hosts=[HostSpec.from_dict(h) for h in hosts or []] or None,
            subfarm_specs=specs,
            subfarms_per_shard=_field(data, "subfarms_per_shard", int,
                                      "topology", 1),
            inmates_per_subfarm=_field(data, "inmates_per_subfarm", int,
                                       "topology", 2),
            metadata=_field(data, "metadata", dict, "topology", None),
        )

    def spec_digest(self) -> str:
        """sha256 over the canonical JSON of the declaration."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    # ------------------------------------------------------------------
    # The compiler: lower the declaration through named passes
    # ------------------------------------------------------------------
    def compile(self) -> "Placement":
        state = _CompileState(self)
        for pass_name, pass_fn in (
            ("normalize", _pass_normalize),
            ("validate_hosts", _pass_validate_hosts),
            ("pack_shards", _pass_pack_shards),
            ("validate_placement", _pass_validate_placement),
        ):
            state.current_pass = pass_name
            pass_fn(state)
            state.passes_used.append(pass_name)
            if state.errors:
                raise TopologyError(
                    f"topology {self.name!r} failed pass "
                    f"{pass_name!r}: "
                    + "; ".join(e["detail"] for e in state.errors),
                    errors=state.errors)
        return Placement(
            topology_name=self.name,
            topology_digest=self.spec_digest(),
            passes_used=list(state.passes_used),
            subfarms=state.subfarms,
            shards=state.shards,
            hosts={host.name: host.to_dict() for host in self.hosts},
            inmates_per_subfarm=self.inmates_per_subfarm,
        )

    def __repr__(self) -> str:
        return (f"<FarmTopology {self.name!r} subfarms={self.subfarms} "
                f"hosts={len(self.hosts)}>")


class _CompileState:
    """Mutable scratchpad threaded through the passes."""

    def __init__(self, topo: FarmTopology) -> None:
        self.topo = topo
        self.current_pass = ""
        self.passes_used: List[str] = []
        self.errors: List[dict] = []
        self.subfarms: List[dict] = []
        self.shards: List[dict] = []

    def error(self, code: str, detail: str) -> None:
        self.errors.append({"pass": self.current_pass, "error": code,
                            "detail": detail})


def _pass_normalize(state: _CompileState) -> None:
    topo = state.topo
    if not 1 <= topo.subfarms <= _MAX_SUBFARMS:
        state.error("bad_count",
                    f"subfarms must be 1..{_MAX_SUBFARMS}, got "
                    f"{topo.subfarms}")
        return
    if topo.subfarms_per_shard < 1:
        state.error("bad_count",
                    "subfarms_per_shard must be >= 1, got "
                    f"{topo.subfarms_per_shard}")
        return
    if len(topo.subfarm_specs) > topo.subfarms:
        state.error("too_many_overrides",
                    f"{len(topo.subfarm_specs)} subfarm overrides for "
                    f"{topo.subfarms} subfarms")
        return
    for index in range(topo.subfarms):
        override = topo.subfarm_specs[index] \
            if index < len(topo.subfarm_specs) else {}
        unknown = sorted(set(override) - set(_SUBFARM_KEYS))
        for key in unknown:
            state.error("unknown_key",
                        f"subfarm {index} override key {key!r}")
        state.subfarms.append({
            "index": index,
            "name": str(override.get("name") or f"sf-{index}"),
            "host": override.get("host"),
        })
    names = [sf["name"] for sf in state.subfarms]
    for name in sorted({n for n in names if names.count(n) > 1}):
        state.error("duplicate_subfarm",
                    f"subfarm name {name!r} used more than once")


def _pass_validate_hosts(state: _CompileState) -> None:
    seen: Dict[str, int] = {}
    for host in state.topo.hosts:
        if host.name in seen:
            state.error("duplicate_host",
                        f"host name {host.name!r} declared twice")
        seen[host.name] = 1
        if host.address != "local":
            name, _, port = host.address.rpartition(":")
            if not name or not port.isdigit():
                state.error("bad_address",
                            f"host {host.name!r} address "
                            f"{host.address!r} is neither 'local' nor "
                            "'host:port'")
        if host.max_workers is not None and host.max_workers < 1:
            state.error("bad_cap",
                        f"host {host.name!r} max_workers must be >= 1, "
                        f"got {host.max_workers}")


def _pass_pack_shards(state: _CompileState) -> None:
    topo = state.topo
    host_names = [host.name for host in topo.hosts]
    groups = [state.subfarms[i:i + topo.subfarms_per_shard]
              for i in range(0, len(state.subfarms),
                             topo.subfarms_per_shard)]
    for index, group in enumerate(groups):
        pins = sorted({sf["host"] for sf in group
                       if sf["host"] is not None})
        for pin in pins:
            if pin not in host_names:
                state.error("unknown_host",
                            f"subfarm {group[0]['name']!r} shard pins "
                            f"unknown host {pin!r} (inventory: "
                            f"{', '.join(host_names)})")
        if len(pins) > 1:
            state.error("split_shard",
                        f"shard {index} subfarms pin different hosts: "
                        f"{', '.join(repr(p) for p in pins)}")
        if pins and pins[0] in host_names and len(pins) == 1:
            host = pins[0]
        else:
            host = host_names[index % len(host_names)]
        for sf in group:
            sf["host"] = host
        state.shards.append({
            "index": index,
            "host": host,
            "subfarms": [sf["name"] for sf in group],
        })


def _pass_validate_placement(state: _CompileState) -> None:
    host_names = {host.name for host in state.topo.hosts}
    for shard in state.shards:
        if shard["host"] not in host_names:
            state.error("unknown_host",
                        f"shard {shard['index']} placed on unknown "
                        f"host {shard['host']!r}")


_PLACEMENT_KEYS = ("topology", "topology_digest", "passes_used",
                   "subfarms", "shards", "hosts",
                   "inmates_per_subfarm")


class Placement:
    """The compiled layer: concrete subfarm → shard → host mapping.

    Pure data — JSON round-trips losslessly and :meth:`digest` is
    stable, so a placement can be logged next to the campaign it drove
    and replayed later.  :meth:`campaign` derives the shard specs;
    :meth:`endpoints` lists the worker-agent addresses the scheduler
    should dial.
    """

    def __init__(self, topology_name: str, topology_digest: str,
                 passes_used: List[str], subfarms: List[dict],
                 shards: List[dict], hosts: Dict[str, dict],
                 inmates_per_subfarm: int = 2) -> None:
        self.topology_name = topology_name
        self.topology_digest = topology_digest
        self.passes_used = list(passes_used)
        self.subfarms = [dict(sf) for sf in subfarms]
        self.shards = [dict(sh) for sh in shards]
        self.hosts = {name: dict(info)
                      for name, info in sorted(hosts.items())}
        self.inmates_per_subfarm = int(inmates_per_subfarm)

    def to_dict(self) -> dict:
        return {
            "topology": self.topology_name,
            "topology_digest": self.topology_digest,
            "passes_used": list(self.passes_used),
            "subfarms": [dict(sf) for sf in self.subfarms],
            "shards": [dict(sh) for sh in self.shards],
            "hosts": {name: dict(info)
                      for name, info in self.hosts.items()},
            "inmates_per_subfarm": self.inmates_per_subfarm,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Placement":
        _reject_unknown_keys(data, _PLACEMENT_KEYS, "placement")
        return cls(topology_name=data["topology"],
                   topology_digest=data["topology_digest"],
                   passes_used=data.get("passes_used") or [],
                   subfarms=data["subfarms"],
                   shards=data["shards"],
                   hosts=data.get("hosts") or {},
                   inmates_per_subfarm=data.get("inmates_per_subfarm",
                                                2))

    def digest(self) -> str:
        """sha256 over the canonical JSON of the placement."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    # ------------------------------------------------------------------
    def endpoints(self) -> List[str]:
        """Worker-agent ``host:port`` addresses, host-name order.

        Empty when every host is ``"local"`` — the scheduler then uses
        the in-process spawn pool.
        """
        return [info["address"]
                for _name, info in sorted(self.hosts.items())
                if info.get("address", "local") != "local"]

    def campaign(self, task: str,
                 params: Optional[Dict[str, Any]] = None,
                 base_seed: int = 0,
                 timeout: Optional[float] = None) -> Campaign:
        """One :class:`ShardSpec` per placed shard.

        Each shard's params carry its subfarm count and derived seed;
        the campaign metadata records the placement digest and the
        shard → host map so a result file names where its shards were
        *supposed* to run (the scheduling-honesty record says where
        they actually did).
        """
        shards = []
        for placed in self.shards:
            index = placed["index"]
            shard_params = dict(params or {})
            shard_params.setdefault("subfarms", len(placed["subfarms"]))
            shard_params.setdefault("inmates", self.inmates_per_subfarm)
            shard_params.setdefault("seed", derive_seed(base_seed, index))
            shards.append(ShardSpec(
                index, task, shard_params, timeout=timeout,
                label=f"{self.topology_name}-{index}"))
        return Campaign(
            f"topology-{self.topology_name}", shards,
            base_seed=base_seed,
            metadata={
                "kind": "topology",
                "task": task,
                "placement_digest": self.digest(),
                "shard_hosts": {str(sh["index"]): sh["host"]
                                for sh in self.shards},
            })

    def __repr__(self) -> str:
        return (f"<Placement {self.topology_name!r} "
                f"subfarms={len(self.subfarms)} "
                f"shards={len(self.shards)} hosts={len(self.hosts)}>")
