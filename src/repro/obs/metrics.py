"""Labeled metrics: counters, gauges, fixed-bucket histograms.

The farm's in-path instruments.  Everything here is zero-dependency,
allocation-light, and deterministic: histogram quantiles come from
fixed bucket boundaries (linear interpolation inside the winning
bucket), so the same run always snapshots to the same numbers.

Instruments are handed out by name from a
:class:`~repro.obs.telemetry.Telemetry` domain.  Three usage styles:

* read — ``telemetry.counter("gw.frames.received").register(read)``:
  the component keeps the count itself; the exporter calls ``read()``;
* bound — ``cell = telemetry.counter(...).bind(subfarm="x")`` resolves
  the label set once and hands back the raw cell, so a site with no
  plain count of its own pays a single method call per update;
* ad-hoc — ``telemetry.counter("trigger.fired").inc(action="x")``
  pays one label sort + dict lookup per call.

When telemetry is disabled every instrument is the shared
:data:`NULL_INSTRUMENT`, whose methods do nothing — call sites need no
conditionals and benchmarks see near-zero overhead.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Bucket bounds (seconds) suiting both LAN-scale shim round-trips and
#: queueing delays under overload.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Cells beyond this per metric collapse into one overflow cell rather
#: than growing without bound (label-cardinality protection).
DEFAULT_MAX_CARDINALITY = 256

OVERFLOW_KEY: LabelKey = (("__overflow__", "1"),)


def label_key(labels: Dict[str, str]) -> LabelKey:
    """Canonical, hashable form of a label set."""
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_key(name: str, key: LabelKey) -> str:
    """Render ``name{k=v,...}`` — the exporter's metric identity."""
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


def parse_identity(identity: str) -> Tuple[str, List[Tuple[str, str]]]:
    """Inverse of :func:`format_key`: ``name{k=v,...}`` →
    ``(name, [(k, v), ...])``."""
    name, brace, rest = identity.partition("{")
    if not brace:
        return identity, []
    inner = rest[:-1] if rest.endswith("}") else rest
    labels = []
    for pair in inner.split(","):
        if pair:
            key, _, value = pair.partition("=")
            labels.append((key, value))
    return name, labels


class _NullInstrument:
    """Shared do-nothing instrument for disabled telemetry."""

    __slots__ = ()

    def bind(self, **labels: str) -> "_NullInstrument":
        return self

    def register(self, read, **labels: str) -> None:
        pass

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        pass

    def set(self, value: float, **labels: str) -> None:
        pass

    def observe(self, value: float, **labels: str) -> None:
        pass

    def value(self, **labels: str) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0

    def quantile(self, q: float, **labels: str) -> float:
        return 0.0

    def summary(self, **labels: str) -> Dict[str, float]:
        return {"count": 0.0, "sum": 0.0}


NULL_INSTRUMENT = _NullInstrument()


class CounterCell:
    """One (metric, label set) monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class ReadCell:
    """One (metric, label set) whose value lives in the component that
    counts it: ``value`` evaluates the registered read, as a float."""

    def __init__(self, read: Callable[[], float]) -> None:
        self.read = read

    value = property(lambda self: float(self.read()))


class GaugeCell:
    """One (metric, label set) point-in-time value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class HistogramCell:
    """Fixed-bucket distribution for one (metric, label set)."""

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        # One count per bound plus the +inf overflow bucket.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        if self.count == 0 or value < self.min:
            self.min = value
        if self.count == 0 or value > self.max:
            self.max = value
        self.count += 1
        self.sum += value
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    def quantile(self, q: float) -> float:
        """Deterministic estimate: locate the bucket holding rank
        ``q * count`` and interpolate linearly inside it, clamped to
        the observed min/max."""
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        rank = q * self.count
        cumulative = 0.0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.bounds[index - 1] if index > 0 else self.min
                upper = (self.bounds[index] if index < len(self.bounds)
                         else self.max)
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + fraction * (upper - lower)
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
        return self.max

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class _Metric:
    """Shared label-cell bookkeeping for the three instrument kinds."""

    kind = "metric"

    def __init__(self, name: str, help: str = "",
                 max_cardinality: int = DEFAULT_MAX_CARDINALITY) -> None:
        self.name = name
        self.help = help
        self.max_cardinality = max_cardinality
        self._cells: Dict[LabelKey, object] = {}

    def _make_cell(self) -> object:
        raise NotImplementedError

    def _cell(self, labels: Dict[str, str]):
        key = label_key(labels)
        cell = self._cells.get(key)
        if cell is None:
            if len(self._cells) >= self.max_cardinality:
                key = OVERFLOW_KEY
                cell = self._cells.get(key)
                if cell is None:
                    cell = self._cells[key] = self._make_cell()
                return cell
            cell = self._cells[key] = self._make_cell()
        return cell

    def bind(self, **labels: str):
        """Resolve a label set once; returns the raw cell."""
        return self._cell(labels)

    def register(self, read: Callable[[], float], **labels: str) -> None:
        """Make ``read()`` the value of this label set."""
        self._cells[label_key(labels)] = ReadCell(read)

    def cells(self) -> Dict[LabelKey, object]:
        return dict(self._cells)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} cells={len(self._cells)}>"


class Counter(_Metric):
    """Monotonically increasing, labeled."""

    kind = "counter"

    def _make_cell(self) -> CounterCell:
        return CounterCell()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self._cell(labels).inc(amount)

    def value(self, **labels: str) -> float:
        cell = self._cells.get(label_key(labels))
        return cell.value if cell is not None else 0.0

    def total(self) -> float:
        return sum(cell.value for cell in self._cells.values())


class Gauge(_Metric):
    """Point-in-time value, labeled."""

    kind = "gauge"

    def _make_cell(self) -> GaugeCell:
        return GaugeCell()

    def set(self, value: float, **labels: str) -> None:
        self._cell(labels).set(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self._cell(labels).inc(amount)

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self._cell(labels).dec(amount)

    def value(self, **labels: str) -> float:
        cell = self._cells.get(label_key(labels))
        return cell.value if cell is not None else 0.0


class Histogram(_Metric):
    """Fixed-bucket distribution with p50/p95/p99 summaries, labeled."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
                 max_cardinality: int = DEFAULT_MAX_CARDINALITY) -> None:
        super().__init__(name, help, max_cardinality)
        self.buckets = tuple(sorted(buckets))

    def _make_cell(self) -> HistogramCell:
        return HistogramCell(self.buckets)

    def observe(self, value: float, **labels: str) -> None:
        self._cell(labels).observe(value)

    def quantile(self, q: float, **labels: str) -> float:
        cell = self._cells.get(label_key(labels))
        return cell.quantile(q) if cell is not None else 0.0

    def summary(self, **labels: str) -> Dict[str, float]:
        cell = self._cells.get(label_key(labels))
        if cell is None:
            return {"count": 0.0, "sum": 0.0}
        return cell.summary()
