"""Labeled metrics: counters, gauges, fixed-bucket histograms.

The farm's in-path instruments.  Everything here is zero-dependency,
allocation-light, and deterministic: histogram quantiles come from
fixed bucket boundaries (linear interpolation inside the winning
bucket), so the same run always snapshots to the same numbers.

Instruments are handed out by name from a
:class:`~repro.obs.telemetry.Telemetry` domain.  A value gets in one
of two ways:

* counters and gauges are *read* —
  ``telemetry.counter("gw.frames.received").register(read, **labels)``:
  the component keeps the number itself and the exporter calls
  ``read()``.  A label set may hold several reads (two catch-all sinks,
  one resolver per subfarm); its value is their sum.  A counter exports
  as a float, a gauge as its reads return it (an int stays an int);
* histograms are *pushed* — ``cell = telemetry.histogram(...).bind(
  subfarm="x")`` resolves the label set once, and ``cell.observe(v)``
  records one sample.

When telemetry is disabled every instrument is the shared
:data:`NULL_INSTRUMENT`: a read registers nothing and an observation is
an empty call, so call sites need no conditionals.
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

#: Label sets beyond this per metric collapse into one overflow cell
#: rather than growing without bound (label-cardinality protection).
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

    def register(self, read, **labels: str) -> None:
        pass

    def bind(self, **labels: str) -> "_NullInstrument":
        return self

    def observe(self, value: float) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


class ReadCell(list):
    """One (metric, label set) of a counter or gauge: the reads
    registered under it, whose values add up."""

    value = property(lambda self: sum(read() for read in self))


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

    def cells(self) -> Dict[LabelKey, object]:
        return dict(self._cells)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} cells={len(self._cells)}>"


class _ReadMetric(_Metric):
    """A counter or gauge: every label set's value is read."""

    _make_cell = ReadCell

    def register(self, read: Callable[[], float], **labels: str) -> None:
        """Add ``read()`` to the value of this label set."""
        self._cell(labels).append(read)


class Counter(_ReadMetric):
    """Monotonically increasing, labeled."""

    kind = "counter"


class Gauge(_ReadMetric):
    """Point-in-time value, labeled."""

    kind = "gauge"


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

    def bind(self, **labels: str) -> HistogramCell:
        """Resolve a label set once; returns the raw cell."""
        return self._cell(labels)
