"""Structured observability for the WiTAG simulator.

Three pieces, composable but independently usable:

* :mod:`repro.obs.metrics` — a deterministic metrics registry
  (counters, gauges, fixed/log-bucket histograms) with JSON and
  Prometheus-text exposition.
* :mod:`repro.obs.trace` — JSONL query/session trace records with
  head/tail/every-N sampling and schema validation.
* :class:`Telemetry` (:mod:`repro.obs.telemetry`) — the facade that
  wires both, plus the wall-time spans of :mod:`repro.obs.spans`, into
  a :class:`repro.core.system.WiTagSystem`; simulators without one
  attached (the default) pay a single ``is None`` check per hook site.

Cross-process: :class:`TelemetrySpec` travels to workers,
:class:`TelemetryAggregate` merges what they send back (see
:mod:`repro.runner.engine`), and :mod:`repro.obs.runtime` lets worker
entry points attach the chunk's active telemetry to systems they build.
"""

from .aggregate import TelemetryAggregate
from .metrics import (
    BER_BUCKETS,
    SINR_LINEAR_BUCKETS,
    SNAPSHOT_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    linear_buckets,
    log_buckets,
    merge_metric_snapshots,
    render_prometheus,
)
from .export import chrome_trace, flamegraph_lines
from .runtime import (
    activate,
    active,
    attach_active,
    attach_active_fleet,
    deactivate,
)
from .serve import CHUNK_LATENCY_BUCKETS, ServerMetrics
from .telemetry import Telemetry, TelemetrySpec
from .trace import (
    TRACE_SCHEMA,
    TraceSampler,
    TraceWriter,
    fading_digest,
    fading_rows_digest,
    read_trace,
    states_digest,
    summarize_trace,
    validate_trace_record,
)

__all__ = [
    "BER_BUCKETS",
    "CHUNK_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SINR_LINEAR_BUCKETS",
    "SNAPSHOT_SCHEMA",
    "ServerMetrics",
    "TRACE_SCHEMA",
    "Telemetry",
    "TelemetryAggregate",
    "TelemetrySpec",
    "TraceSampler",
    "TraceWriter",
    "activate",
    "active",
    "attach_active",
    "attach_active_fleet",
    "chrome_trace",
    "deactivate",
    "fading_digest",
    "fading_rows_digest",
    "flamegraph_lines",
    "linear_buckets",
    "log_buckets",
    "merge_metric_snapshots",
    "read_trace",
    "render_prometheus",
    "states_digest",
    "summarize_trace",
    "validate_trace_record",
]
