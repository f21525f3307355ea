"""Farm-wide observability: two instruments and one merge.

The paper's reporting layer is "the operator's eyes" (§6.5); this
package is the live counterpart — in-path visibility into where
packets are dropped, how long shim round trips take on the virtual
clock, and how hot the safety filter runs, all captured deterministically
so two runs with the same seed snapshot identically.

*Metrics* say how many; the *journal* says why and when — it is the
farm's only flow-level recorder, and the record ``repro.verify``
cross-validates the containment certificate against.

Layout:

* :mod:`repro.obs.metrics` — labeled counters/gauges/histograms,
* :mod:`repro.obs.telemetry` — the metrics domain (plus the disabled
  no-op),
* :mod:`repro.obs.journal` — the flight recorder: bounded causal
  decision journal plus time-series sample rings,
* :mod:`repro.obs.provenance` — causal-chain reconstruction over
  journal snapshots (``why <flow>``),
* :mod:`repro.obs.export` — JSON/text snapshot exporters plus
  OpenMetrics, JSONL, and Chrome trace-event renderings,
* :mod:`repro.obs.merge` — the one shard-labeled merge, for both
  snapshot schemas, for parallel campaigns (:mod:`repro.parallel`).

``python -m repro.obs`` (:mod:`repro.obs.__main__`) is the operator
CLI: ``snapshot``, ``diff``, ``grep``, and ``why <flow>``.
"""

from repro.obs.export import (
    render_chrome_trace,
    render_jsonl,
    render_openmetrics,
    render_text,
    snapshot,
    to_json,
)
from repro.obs.journal import (
    JOURNAL_SCHEMA,
    Journal,
    JournalEvent,
    NULL_JOURNAL,
    NullJournal,
    journal_digest,
)
from repro.obs.merge import label_identity, merge
from repro.obs.provenance import (
    chain_for,
    deepest_chains,
    event_counts,
    render_why,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    NULL_INSTRUMENT,
    format_key,
)
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "JOURNAL_SCHEMA",
    "Journal",
    "JournalEvent",
    "NULL_INSTRUMENT",
    "NULL_JOURNAL",
    "NULL_TELEMETRY",
    "NullJournal",
    "NullTelemetry",
    "chain_for",
    "deepest_chains",
    "event_counts",
    "journal_digest",
    "label_identity",
    "merge",
    "render_chrome_trace",
    "render_jsonl",
    "render_openmetrics",
    "render_why",
    "Telemetry",
    "format_key",
    "render_text",
    "snapshot",
    "to_json",
]
