"""Server-level metrics for the sweep job service.

The job server's registry is intentionally separate from the physics
registries that ride the chunk-result channel: server metrics describe
*scheduling* (queue depth, jobs by state, chunk latency) and are
inherently non-deterministic, while the physics registries keep their
determinism contract.  ``GET /metrics`` renders this registry with
the same :func:`repro.obs.metrics.render_prometheus` exposition the
``repro metrics`` CLI uses, so one scrape config covers both.
"""

from __future__ import annotations

from typing import Any

from .metrics import MetricsRegistry, log_buckets, render_prometheus

__all__ = ["CHUNK_LATENCY_BUCKETS", "ServerMetrics"]

#: Chunk wall-clock latency edges: 100 us .. 100 s, log-spaced.  Wide
#: because one chunk may hold anything from a handful of rng probes to
#: minutes of simulated session time.
CHUNK_LATENCY_BUCKETS = log_buckets(1e-4, 100.0, 13)

#: Every job state a gauge series is pre-created for, so a scrape sees
#: explicit zeros instead of missing series.
_JOB_STATES = ("queued", "running", "completed", "failed", "cancelled")


class ServerMetrics:
    """Counters/gauges/histograms describing one job server's lifetime."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._submitted = self.registry.counter(
            "serve_jobs_submitted_total",
            "Jobs accepted by POST /jobs, by job kind",
            labels=("kind",),
        )
        self._jobs = self.registry.gauge(
            "serve_jobs",
            "Jobs currently known to the store, by state",
            labels=("state",),
            aggregation="sum",
        )
        self._queue_depth = self.registry.gauge(
            "serve_queue_depth",
            "Jobs waiting in the priority queue",
            aggregation="sum",
        )
        self._chunks = self.registry.counter(
            "serve_chunks_completed_total",
            "Engine chunks resolved across all jobs (resumed included)",
            labels=("resumed",),
        )
        self._chunk_latency = self.registry.histogram(
            "serve_chunk_latency_seconds",
            CHUNK_LATENCY_BUCKETS,
            "Wall-clock seconds spent inside one chunk's work functions",
        )
        self._events = self.registry.counter(
            "serve_events_streamed_total",
            "SSE events written to clients",
        )
        for state in _JOB_STATES:
            self._jobs.labels(state=state).set(0)
        self._queue_depth.set(0)

    def job_submitted(self, kind: str) -> None:
        self._submitted.labels(kind=kind).inc()

    def set_job_states(self, counts: dict[str, int]) -> None:
        """Publish the store's jobs-by-state census (absolute values)."""
        for state in _JOB_STATES:
            self._jobs.labels(state=state).set(counts.get(state, 0))

    def set_queue_depth(self, depth: int) -> None:
        self._queue_depth.set(depth)

    def chunk_completed(self, busy_s: float, resumed: bool) -> None:
        self._chunks.labels(resumed="true" if resumed else "false").inc()
        self._chunk_latency.observe(float(busy_s))

    def event_streamed(self, n: int = 1) -> None:
        self._events.inc(n)

    def snapshot(self) -> dict[str, Any]:
        """JSON-able registry snapshot (schema-1, mergeable)."""
        return self.registry.snapshot()

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        return render_prometheus(self.snapshot())
