"""Outside-in span recorder for the layer ledger.

Spans are recorded from the benchmark's side of the package boundary:
:func:`install` replaces public methods on ``repro`` classes with
timing wrappers *before* the farm is built (class attributes resolve at
call time, so every later bound-method capture sees the wrapper) and
:func:`uninstall` puts the originals back.  Nothing in ``src/`` knows
it is being traced.

A span has a layer, a start, an end and a parent (the span open when it
started).  A layer's **self time** is the span's duration minus the
part its child spans cover, so summing self time over all layers gives
back the duration of the root spans exactly — that identity is the
ledger's completeness check.  The recorder aggregates in memory per
entry point and per parent→child layer edge, keeps the complete span
tree of every ``sample_every``-th top-level child of a root (one
simulator event), and is written out once, after the run.

Known distortion: the wrapper's own cost lands in the *parent's* self
time (the clock reads sit inside the wrapper), so layers that make
many wrapped calls read high by the tracer's per-call overhead.
``trace_overhead_ratio`` (traced wall / untraced wall) bounds it.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Tuple

# Layer = module name.  Order fixes the integer ids used on the hot
# path and the row order of every ledger.
LAYERS = (
    "sim.engine", "net.link", "net.host", "net.tcp", "net.packet",
    "net.wirebatch", "gateway.gateway", "gateway.router",
    "gateway.safety", "core.server", "core.shim", "core.policy",
    "obs.journal", "obs.telemetry", "app",
    "parallel.pool", "parallel.transport", "parallel.merge",
)
LAYER_ID = {name: index for index, name in enumerate(LAYERS)}

# Enough for a few dozen complete event trees in the Chrome sample.
MAX_SAMPLED_SPANS = 2000


class Recorder:
    """In-memory span aggregates; disabled until :attr:`enabled`."""

    def __init__(self, sample_every: int = 256) -> None:
        self.enabled = False
        self.sample_every = sample_every
        # Open spans: [layer_id, seconds covered by closed children].
        self.stack: List[list] = []
        # One [calls, self_s] cell per wrapped entry point.
        self.cells: Dict[Tuple[str, str], list] = {}
        count = len(LAYERS)
        # edges[parent][child] = [calls, total_s of the child spans].
        self.edges = [[[0, 0.0] for _ in range(count)]
                      for _ in range(count)]
        self.root_s = 0.0
        self.roots = 0
        self.top_level = 0
        self.sampling = False
        # (label, layer_id, start, duration, depth) of sampled spans.
        self.samples: List[tuple] = []
        # Plain call counts of hooks too hot or too small for a span.
        self.counts: Dict[str, int] = {}
        # Every FlowEntry constructed while enabled (for the share of
        # installed entries that never took a hit).
        self.flow_entries: list = []

    # ------------------------------------------------------------------
    def wrap(self, layer: str, label: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped in a span of ``layer``."""
        layer_id = LAYER_ID[layer]
        cell = self.cells.setdefault((layer, label), [0, 0.0])
        rec = self
        stack = self.stack
        edges = self.edges
        samples = self.samples

        def span(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            depth = len(stack)
            if depth == 1:
                rec.top_level += 1
                rec.sampling = (
                    not rec.top_level % rec.sample_every
                    and len(samples) < MAX_SAMPLED_SPANS)
            frame = [layer_id, 0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - started
                stack.pop()
                cell[0] += 1
                cell[1] += duration - frame[1]
                if depth:
                    parent = stack[-1]
                    parent[1] += duration
                    edge = edges[parent[0]][layer_id]
                    edge[0] += 1
                    edge[1] += duration
                    if rec.sampling:
                        samples.append((label, layer_id, started,
                                        duration, depth))
                else:
                    rec.roots += 1
                    rec.root_s += duration
                    rec.sampling = False

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", label)
        span.__qualname__ = getattr(fn, "__qualname__", label)
        return span

    def count(self, name: str, fn: Callable, keep=None) -> Callable:
        """Return ``fn`` wrapped to bump ``counts[name]`` (and, with
        ``keep``, remember its first argument) while enabled."""
        rec = self
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            if rec.enabled:
                counts[name] += 1
                if keep is not None:
                    keep.append(args[0])
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe aggregates (what a ``.ledger.json`` stores).
        Every value is additive, so shard ledgers merge by summing."""
        return {
            "roots": self.roots,
            "root_s": self.root_s,
            "top_level_spans": self.top_level,
            "entry_points": {
                label: {"layer": layer, "calls": cell[0],
                        "self_s": cell[1]}
                for (layer, label), cell in sorted(self.cells.items())
                if cell[0]
            },
            "edges": {
                f"{LAYERS[p]}>{LAYERS[c]}":
                    {"calls": edge[0], "total_s": edge[1]}
                for p, row in enumerate(self.edges)
                for c, edge in enumerate(row) if edge[0]
            },
            "counts": dict(self.counts),
        }

    def chrome_trace(self) -> List[dict]:
        """The sampled span trees as Chrome ``traceEvents`` (load in
        chrome://tracing or Perfetto); times in microseconds from the
        first sampled span."""
        spans = self.samples
        if not spans:
            return []
        origin = min(span[2] for span in spans)
        return [
            {"name": label, "cat": LAYERS[layer_id], "ph": "X",
             "ts": round((started - origin) * 1e6, 3),
             "dur": round(duration * 1e6, 3), "pid": 1, "tid": 1,
             "args": {"depth": depth}}
            for label, layer_id, started, duration, depth in spans
        ]


# ----------------------------------------------------------------------
# Which entry points belong to which layer
# ----------------------------------------------------------------------
def entry_points() -> List[tuple]:
    """``(layer, owner, attribute)`` for every wrapped entry point.

    Owners are classes, or modules for functions that callers reach
    through a module global at call time.  Functions imported *by
    name* into a caller's namespace (``execute_run``,
    ``serialize_tcp_rows``, ``internet_checksum``) cannot be wrapped
    from outside; their time stays in the parent span.
    """
    from repro.core.dsl import DslPolicy
    from repro.core.policy import AllowAll
    from repro.core.server import ContainmentServer, _CsConnection
    from repro.core.shim import RequestShim, ResponseShim
    from repro.farm import Farm
    from repro.gateway.gateway import Gateway
    from repro.gateway.router import SubfarmRouter
    from repro.gateway.safety import SafetyFilter
    from repro.net.host import Host, UdpStack
    from repro.net.link import Link, Port, Switch
    from repro.net.packet import (EthernetFrame, IPv4Packet, TCPSegment,
                                  UDPDatagram)
    from repro.net.tcp import TcpConnection, TcpStack
    from repro.net.wirebatch import BatchOutput, WireBatch
    from repro.obs.journal import Journal
    from repro.parallel import pool, transport
    from repro.sim.engine import Simulator

    table = [
        ("sim.engine", Simulator, ("run", "step")),
        ("net.link", Link, ("transmit",)),
        ("net.link", Port, ("send", "deliver")),
        ("net.link", Switch, ("receive_frame",)),
        ("net.host", Host, ("receive_frame", "send_ip")),
        ("net.host", UdpStack, ("sendto", "packet_arrived")),
        ("net.tcp", TcpStack, ("packet_arrived", "connect")),
        ("net.tcp", TcpConnection, ("send", "close", "abort")),
        ("net.packet", EthernetFrame, ("to_bytes", "from_bytes", "copy")),
        ("net.packet", IPv4Packet, ("to_bytes", "from_bytes", "copy")),
        ("net.packet", TCPSegment, ("to_bytes", "from_bytes", "copy")),
        ("net.packet", UDPDatagram, ("to_bytes", "from_bytes", "copy")),
        ("net.wirebatch", WireBatch,
         ("append_tcp", "append_udp", "append_packet", "materialize")),
        ("net.wirebatch", BatchOutput, ("serialize",)),
        ("gateway.gateway", Gateway,
         ("receive_frame", "receive_frame_batch", "send_to_vlan",
          "send_to_service", "send_upstream")),
        ("gateway.router", SubfarmRouter,
         ("inmate_frame", "inmate_frame_batch", "ingest_batch",
          "service_frame", "upstream_packet", "expire_idle_flows",
          "sweep_flowtable")),
        ("gateway.safety", SafetyFilter, ("admit",)),
        ("core.server", ContainmentServer,
         ("schedule_issue", "_udp_datagram")),
        ("core.server", _CsConnection, ("_on_data",)),
        ("core.shim", RequestShim, ("to_bytes", "from_bytes")),
        ("core.shim", ResponseShim,
         ("to_bytes", "from_bytes", "from_decision")),
        ("core.policy", AllowAll, ("decide", "decide_content")),
        ("core.policy", DslPolicy, ("decide", "decide_content")),
        ("obs.journal", Journal, ("record", "snapshot", "digest")),
        ("obs.telemetry", Farm, ("telemetry_snapshot",)),
        ("parallel.pool", transport.LocalTransport, ("launch",)),
        ("parallel.transport", transport.LocalWorkerHandle,
         ("send", "drain")),
        ("parallel.transport", transport.FrameDecoder, ("feed",)),
        ("parallel.transport", transport, ("encode_frame",)),
        ("parallel.merge", pool, ("merge_results",)),
    ]
    return [(layer, owner, name)
            for layer, owner, names in table for name in names]


def install(rec: Recorder, only: str = "") -> List[tuple]:
    """Wrap every entry point whose layer starts with ``only`` (the
    campaign master passes ``"parallel."``: its farms live in the
    workers, which trace themselves); returns the undo list for
    :func:`uninstall`."""
    from repro.gateway.flowtable import FlowEntry
    from repro.net.wirebatch import BatchOutput
    from repro.sim.engine import Event

    undo = []
    for owner, name, counter, keep in (
        (Event, "cancel", "sim.engine.cancels", None),
        (BatchOutput, "append_run", "net.wirebatch.runs", None),
        (FlowEntry, "__init__", "gateway.flowtable.entries",
         rec.flow_entries),
    ):
        if not counter.startswith(only):
            continue
        original = owner.__dict__[name]
        setattr(owner, name, rec.count(counter, original, keep))
        undo.append((owner, name, original))
    for layer, owner, name in entry_points():
        if not layer.startswith(only):
            continue
        original = owner.__dict__[name]
        label = f"{getattr(owner, '__name__', owner).rpartition('.')[2]}" \
                f".{name}"
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(
                rec.wrap(layer, label, original.__func__))
        else:
            wrapped = rec.wrap(layer, label, original)
        setattr(owner, name, wrapped)
        undo.append((owner, name, original))
    return undo


def uninstall(undo: List[tuple]) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
