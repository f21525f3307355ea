"""The telemetry domain: a clock plus a name-keyed instrument store.

Telemetry is metrics only — *how many* and *how long*, as counters,
gauges and histograms (:mod:`repro.obs.metrics`).  Per-flow facts
(*why* and *when*) live in the decision journal
(:mod:`repro.obs.journal`), the farm's one flow-level recorder.

Every instrumented component takes (or finds on its ``Simulator``) a
``Telemetry`` object and asks it for instruments.  One count per fact:
a component that keeps a number as a plain attribute *registers a
read* of it (``counter(...).register(read)``) for the exporter; only
what has no plain twin (labelled per-flow cells, histograms, a strided
sample) is pushed into a bound cell.  The disabled form,
:data:`NULL_TELEMETRY`, hands out the shared no-op instrument: a pushed
site costs an attribute access and an empty call, a read nothing.

Call sites that would do real work just to *feed* an instrument
(string formatting, label lookups) should guard on
``telemetry.enabled`` first.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    NULL_INSTRUMENT,
    _Metric,
)

Clock = Callable[[], float]


class Telemetry:
    """Live telemetry domain, normally one per farm."""

    enabled = True

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock: Clock = clock if clock is not None else (lambda: 0.0)
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, name: str, cls, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, *args)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        return self._get_or_create(name, Histogram, help, buckets)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def metrics(self) -> List[_Metric]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    def __repr__(self) -> str:
        return f"<Telemetry metrics={len(self._metrics)}>"


class NullTelemetry:
    """Disabled telemetry: every accessor returns the shared no-op."""

    enabled = False

    def counter(self, name: str, help: str = ""):
        return NULL_INSTRUMENT

    def gauge(self, name: str, help: str = ""):
        return NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", buckets=None):
        return NULL_INSTRUMENT

    def clock(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "<NullTelemetry>"


#: The one shared disabled-telemetry instance.
NULL_TELEMETRY = NullTelemetry()
