"""Deterministic cross-process telemetry aggregation.

Worker chunks ship :meth:`repro.obs.telemetry.Telemetry.chunk_snapshot`
dicts back through the engine's chunk-result channel.  The engine sorts
outcomes by chunk index and folds the snapshots here, so a parallel run
and a serial run of the same spec (same units, same chunk size) expose
identical aggregates: counters and histogram bins are integer/ordered
sums, and per-chunk registries are merged in chunk order.

Stage counters (wall-clock) aggregate the same way but are *not*
deterministic across runs — they answer "where did worker time go?",
not "what happened in the physics?".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..perf import StageCounters
from .metrics import SNAPSHOT_SCHEMA, MetricsRegistry

__all__ = ["TelemetryAggregate"]


@dataclass
class TelemetryAggregate:
    """Merged telemetry from one or more chunk snapshots."""

    _registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    _stage: dict[str, StageCounters] = field(default_factory=dict)
    chunks: int = 0
    has_metrics: bool = False

    @classmethod
    def from_chunks(
        cls, chunks: Iterable[Mapping[str, Any]]
    ) -> "TelemetryAggregate":
        """Fold chunk snapshots, in the order given (chunk index order)."""
        aggregate = cls()
        for chunk in chunks:
            aggregate.add_chunk(chunk)
        return aggregate

    def add_chunk(self, chunk: Mapping[str, Any]) -> None:
        metrics = chunk.get("metrics")
        if metrics is not None:
            self._registry.load_snapshot(metrics)
            self.has_metrics = True
        for group, stages in chunk.get("stage", {}).items():
            counters = self._stage.setdefault(group, StageCounters())
            for stage, entry in stages.items():
                counters.add(
                    stage, float(entry["seconds"]), int(entry["calls"])
                )
        self.chunks += 1

    def record_retries(self, events: Iterable[Any]) -> None:
        """Fold scheduler fault-tolerance events into the merged metrics.

        ``events`` are :class:`repro.runner.faults.RetryEvent` objects;
        each increments ``runner_chunk_retries_total{reason}``.  Retry
        events are coordinator-side (workers never see them), so the
        engine folds them in here after the chunk snapshots merge.
        """
        counted = False
        for event in events:
            self._registry.counter(
                "runner_chunk_retries_total",
                "Engine chunk fault-tolerance events by failure reason",
                labels=("reason",),
            ).labels(reason=event.reason).inc()
            counted = True
        if counted:
            self.has_metrics = True

    def metrics_snapshot(self) -> dict[str, Any] | None:
        """Merged metric snapshot, or ``None`` if no chunk had metrics."""
        return self._registry.snapshot() if self.has_metrics else None

    def stage_timings(self) -> dict[str, dict[str, dict[str, float]]]:
        """Merged stage counters, ``{group: {stage: {seconds, calls}}}``."""
        return {
            group: self._stage[group].as_dict()
            for group in sorted(self._stage)
        }

    def stage_counters(self, group: str) -> StageCounters:
        """The merged :class:`StageCounters` for ``group`` (may be empty)."""
        return self._stage.get(group, StageCounters())

    def merge_into(self, session) -> None:
        """Fold merged stage counters back into a caller's live objects.

        ``session`` is a :class:`repro.core.session.MeasurementSession`;
        the "system" and "error_model" groups land on its system's and
        error model's counters, restoring ``stage_timings()`` after a
        parallel run whose workers did the actual timing.
        """
        session.system.counters.merge(self.stage_counters("system"))
        session.system.error_model.counters.merge(
            self.stage_counters("error_model")
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-able view, stamped with schema and producing version."""
        from .. import __version__

        return {
            "schema": SNAPSHOT_SCHEMA,
            "version": __version__,
            "chunks": self.chunks,
            "metrics": self.metrics_snapshot(),
            "stage": self.stage_timings(),
        }
