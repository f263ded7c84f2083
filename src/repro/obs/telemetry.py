"""The telemetry facade: one object wiring metrics + traces into a system.

:class:`Telemetry` owns a :class:`repro.obs.metrics.MetricsRegistry`,
an optional :class:`repro.obs.trace.TraceWriter` (with a
:class:`repro.obs.trace.TraceSampler`), and the set of
:class:`repro.perf.StageCounters` groups it will snapshot.  Attaching it
to a :class:`repro.core.system.WiTagSystem` points the system, its
error model, its tag FSM and its block-ACK scoreboard at this object;
every hook site in the simulator guards with a single ``is None`` check,
so an unattached simulator (the default) pays nothing.

The engine calls these hooks with the values one query after another
would produce, so telemetry does not depend on how queries are chunked:
the equivalence suite asserts identical metric snapshots and identical
trace event streams between the engine and the per-subframe reference
loop kept with the tests, for a pinned seed.

:class:`TelemetrySpec` is the picklable cross-process configuration:
worker processes build their own :class:`Telemetry` from it, and their
snapshots ride the engine's chunk-result channel back to the
coordinator (see :mod:`repro.runner.engine` and
:mod:`repro.obs.aggregate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..perf import StageCounters
from .metrics import (
    BER_BUCKETS,
    SINR_LINEAR_BUCKETS,
    MetricsRegistry,
    log_buckets,
)

#: Simulated AP polling-round durations: milliseconds (a handful of
#: tags, light contention) up to ~a minute (thousands of tags).
ROUND_SECONDS_BUCKETS = log_buckets(1e-3, 1e2, 11)

#: Per-query CSMA channel-access delays: a DIFS (tens of microseconds)
#: up to a second under heavy contention.
ACCESS_DELAY_BUCKETS = log_buckets(1e-5, 1.0, 11)
from .trace import (
    TRACE_SCHEMA,
    TailBuffer,
    TraceSampler,
    TraceWriter,
    fading_digest,
    fading_rows_digest,
    states_digest,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.fleet import MultiTagQueryResult, TagFleet
    from ..core.session import SessionStats
    from ..core.system import QueryResult, WiTagSystem
    from ..phy.error_model import FadingSample
    from ..sim.network import FleetNetwork, FleetRoundStats

__all__ = ["Telemetry", "TelemetrySpec"]


class Telemetry:
    """Metrics + trace recording for one or more attached systems.

    Args:
        metrics: record the metric families below (link-quality
            histograms, per-layer counters).  When False, the registry
            exists but hot-path hooks no-op — useful for collecting
            stage counters only.
        writer: optional JSONL trace destination; ``None`` disables
            tracing.
        sampler: which query indices to trace (default: all).

    Metric families (all deterministic functions of the physics):

    * ``witag_queries_total``, ``witag_sessions_total`` — counters.
    * ``witag_query_bits_total`` / ``witag_query_bit_errors_total`` —
      tag bits attempted / received in error.
    * ``witag_subframes_total`` / ``witag_subframes_corrupted_total`` —
      per-subframe block-ACK outcomes.
    * ``witag_query_ber`` — histogram of per-query BER (log buckets).
    * ``phy_effective_sinr`` — histogram of per-subframe effective SINR
      (linear value, log-spaced buckets; divide edges by 10^(dB/10) to
      read in dB).
    * ``tag_triggers_total{outcome}``, ``tag_toggles_total{aligned}``,
      ``tag_bits_consumed_total`` — tag FSM behaviour.
    * ``mac_scoreboard_records_total`` / ``mac_scoreboard_resets_total``
      — AP-side scoreboard activity.
    * ``witag_build_info{version}`` / ``witag_rx_power_at_tag_dbm`` —
      gauges stamping the producer and link operating point.
    * ``fleet_*`` — the fleet-scale layer: per-tag delivery counters
      and per-query outcomes (:meth:`on_cell_query`, from
      :class:`repro.core.fleet.TagFleet`), per-AP round
      counters/durations, handoff and
      mobility-invalidation counters, and CSMA channel-access
      delays/stalls (see ``docs/observability.md``).
    """

    def __init__(
        self,
        *,
        metrics: bool = True,
        writer: TraceWriter | None = None,
        sampler: TraceSampler | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.metrics_enabled = bool(metrics)
        self.writer = writer
        self.sampler = sampler if sampler is not None else TraceSampler()
        self._tail = TailBuffer(self.sampler.tail if writer else 0)
        self._stage_groups: dict[str, list[StageCounters]] = {}
        self._query_index = 0
        if self.metrics_enabled:
            registry_ = self.registry
            self._queries = registry_.counter(
                "witag_queries_total", "Query cycles executed"
            )
            self._sessions = registry_.counter(
                "witag_sessions_total", "Measurement sessions completed"
            )
            self._bits = registry_.counter(
                "witag_query_bits_total", "Tag bits attempted"
            )
            self._bit_errors = registry_.counter(
                "witag_query_bit_errors_total", "Tag bits received in error"
            )
            self._subframes = registry_.counter(
                "witag_subframes_total", "A-MPDU subframes transmitted"
            )
            self._subframes_bad = registry_.counter(
                "witag_subframes_corrupted_total",
                "Subframes whose FCS failed (block-ACK gap)",
            )
            self._query_ber = registry_.histogram(
                "witag_query_ber", BER_BUCKETS, "Per-query bit error rate"
            )
            self._sinr = registry_.histogram(
                "phy_effective_sinr",
                SINR_LINEAR_BUCKETS,
                "Per-subframe effective SINR (linear)",
            )
            self._triggers = registry_.counter(
                "tag_triggers_total",
                "Trigger detection outcomes",
                labels=("outcome",),
            )
            self._trigger_hit = self._triggers.labels(outcome="detected")
            self._trigger_miss = self._triggers.labels(outcome="missed")
            self._toggles = registry_.counter(
                "tag_toggles_total",
                "Antenna toggles by alignment",
                labels=("aligned",),
            )
            self._toggle_ok = self._toggles.labels(aligned="true")
            self._toggle_bad = self._toggles.labels(aligned="false")
            self._tag_bits = registry_.counter(
                "tag_bits_consumed_total", "Bits consumed from the tag queue"
            )
            self._sb_records = registry_.counter(
                "mac_scoreboard_records_total",
                "MPDUs recorded on the AP scoreboard",
            )
            self._sb_resets = registry_.counter(
                "mac_scoreboard_resets_total",
                "Scoreboard window re-anchors",
            )
            self._chunk_retries = registry_.counter(
                "runner_chunk_retries_total",
                "Engine chunk fault-tolerance events by failure reason",
                labels=("reason",),
            )
            # Fleet-scale families (multi-tag cells, the vectorized
            # fleet engine, and the multi-AP network layer).  Created
            # eagerly so an instrumented run always exposes the same
            # family set regardless of which hooks fire.
            fleet_queries = registry_.counter(
                "fleet_queries_total",
                "Multi-tag query cycles by outcome",
                labels=("outcome",),
            )
            self._fleet_q_answered = fleet_queries.labels(
                outcome="answered"
            )
            self._fleet_q_idle = fleet_queries.labels(outcome="idle")
            self._fleet_tag_bits = registry_.counter(
                "fleet_tag_bits_total",
                "Tag bits attempted, per tag address",
                labels=("tag",),
            )
            self._fleet_tag_errors = registry_.counter(
                "fleet_tag_bit_errors_total",
                "Tag bits received in error, per tag address",
                labels=("tag",),
            )
            self._fleet_tag_delivered = registry_.counter(
                "fleet_tag_delivered_bits_total",
                "Tag bits delivered intact, per tag address",
                labels=("tag",),
            )
            self._fleet_subframes = registry_.counter(
                "fleet_subframes_total",
                "Multi-tag A-MPDU subframes transmitted",
            )
            self._fleet_subframes_bad = registry_.counter(
                "fleet_subframes_corrupted_total",
                "Multi-tag subframes whose FCS failed",
            )
            self._fleet_ber = registry_.histogram(
                "fleet_query_ber",
                BER_BUCKETS,
                "Per-query bit error rate across responding tags",
            )
            self._fleet_rounds = registry_.counter(
                "fleet_rounds_total",
                "Polling rounds completed, per AP",
                labels=("ap",),
            )
            self._fleet_round_queries = registry_.counter(
                "fleet_round_queries_total",
                "Addressed queries issued, per AP",
                labels=("ap",),
            )
            self._fleet_round_responses = registry_.counter(
                "fleet_round_responses_total",
                "Queries answered by their addressed tag, per AP",
                labels=("ap",),
            )
            self._fleet_round_bits = registry_.counter(
                "fleet_round_bits_total",
                "Tag bits attempted in polling rounds, per AP",
                labels=("ap",),
            )
            self._fleet_round_bit_errors = registry_.counter(
                "fleet_round_bit_errors_total",
                "Tag bits received in error in polling rounds, per AP",
                labels=("ap",),
            )
            self._fleet_round_duration = registry_.histogram(
                "fleet_round_duration_seconds",
                ROUND_SECONDS_BUCKETS,
                "Simulated duration of one AP polling round",
                labels=("ap",),
            )
            self._fleet_handoffs = registry_.counter(
                "fleet_handoffs_total",
                "Tag reassignments between reader cells",
                labels=("from_ap", "to_ap"),
            )
            self._fleet_mobility_ticks = registry_.counter(
                "fleet_mobility_ticks_total", "Mobility ticks advanced"
            )
            self._fleet_invalidations = registry_.counter(
                "fleet_mobility_invalidations_total",
                "Per-fleet link-cache rows refreshed by mobility",
            )
            self._fleet_stalls = registry_.counter(
                "fleet_contention_stalls_total",
                "Channel-access waits that exceeded one DIFS, per AP",
                labels=("ap",),
            )
            self._fleet_access_delay = registry_.histogram(
                "fleet_access_delay_seconds",
                ACCESS_DELAY_BUCKETS,
                "Per-query CSMA channel access delay",
                labels=("ap",),
            )

    # ------------------------------------------------------------------
    # Wiring

    @property
    def trace_enabled(self) -> bool:
        return self.writer is not None

    def attach(self, system: "WiTagSystem") -> "WiTagSystem":
        """Wire this telemetry into a system (idempotent); returns it."""
        self.register_stage_counters("system", system.counters)
        self.register_stage_counters(
            "error_model", system.error_model.counters
        )
        if self.metrics_enabled or self.trace_enabled:
            system.telemetry = self
            system.error_model.telemetry = self
            system.tag.telemetry = self
            system._scoreboard._telemetry = self
            if self.metrics_enabled:
                self._stamp_build_info()
                self.registry.gauge(
                    "witag_rx_power_at_tag_dbm",
                    "Query signal power at the tag antenna",
                ).set(system.rx_power_at_tag_dbm)
        return system

    def attach_fleet(self, fleet: "TagFleet") -> "TagFleet":
        """Wire this telemetry into a vectorized tag fleet (idempotent).

        The shared decode model's SINR fills and the last-query
        scoreboard replay report directly; :meth:`on_cell_query` and
        :meth:`on_scoreboard_bulk` (for the replay-elided queries)
        cover the rest, so every counter and histogram reads as if each
        query had its own scoreboard pass.
        """
        self.register_stage_counters("error_model", fleet.counters)
        if self.metrics_enabled or self.trace_enabled:
            fleet.telemetry = self
            fleet._scoreboard._telemetry = self
            fleet._decoder.telemetry = self
            self._stamp_build_info()
        return fleet

    def attach_network(self, network: "FleetNetwork") -> "FleetNetwork":
        """Wire this telemetry into a multi-AP fleet network.

        Attaches every cell's fleet (per-query and link-quality
        families) and the network object itself (per-AP round,
        handoff, mobility and channel-access families).
        """
        for fleet in network.fleets:
            self.attach_fleet(fleet)
        if self.metrics_enabled or self.trace_enabled:
            network.telemetry = self
        return network

    def _stamp_build_info(self) -> None:
        if self.metrics_enabled:
            from .. import __version__

            self.registry.gauge(
                "witag_build_info",
                "Producing repro version (value is always 1)",
                labels=("version",),
            ).labels(version=__version__).set(1.0)

    def register_stage_counters(
        self, group: str, counters: StageCounters
    ) -> None:
        """Track a :class:`StageCounters` for snapshotting under ``group``."""
        existing = self._stage_groups.setdefault(group, [])
        if all(c is not counters for c in existing):
            existing.append(counters)

    # ------------------------------------------------------------------
    # Hooks (called by instrumented simulator components)

    def on_query(
        self,
        result: "QueryResult",
        *,
        n_failed: int,
        states: Iterable[Any],
        fading: "FadingSample",
    ) -> None:
        """One completed query cycle."""
        n_subframes = result.query.n_subframes
        if self.metrics_enabled:
            self._queries.inc()
            n_bits = result.n_bits
            self._subframes.inc(n_subframes)
            self._subframes_bad.inc(n_failed)
            if n_bits:
                self._bits.inc(n_bits)
                self._bit_errors.inc(result.bit_errors)
                self._query_ber.observe(result.bit_errors / n_bits)
        if self.writer is not None:
            index = self._query_index
            record = {
                "schema": TRACE_SCHEMA,
                "kind": "query",
                "index": index,
                "ssn": result.query.ssn,
                "detected": bool(result.detected),
                "bits_sent": int(result.n_bits),
                "bit_errors": int(result.bit_errors),
                "subframes": int(n_subframes),
                "subframes_failed": int(n_failed),
                "bitmap": f"{result.block_ack.bitmap:016x}",
                "states_digest": states_digest(states),
                "fading_digest": fading_digest(
                    fading.direct_gain, fading.tag_fading
                ),
                "cycle_s": float(result.cycle_s),
            }
            if self.sampler.keep(index):
                self.writer.write(record)
            else:
                self._tail.push(record)
        self._query_index += 1

    def on_cell_query(
        self,
        result: "MultiTagQueryResult",
        *,
        n_subframes: int,
        state_rows: Iterable[Any],
        fading_rows: Iterable[tuple[complex, complex]],
        cycle_s: float,
    ) -> None:
        """One multi-tag query cycle, called once per query in order.

        Args:
            result: the query outcome.
            n_subframes: subframes in the query's A-MPDU.
            state_rows: one per-subframe tag-state plan per decode row
                (responders in responder order; the benign idle row
                for an unanswered query).
            fading_rows: one ``(direct_gain, tag_fading)`` pair per
                decode row, in the same order.
            cycle_s: the query frame's airtime.
        """
        bits_sent = 0
        bit_errors = 0
        for name in result.responded:
            sent = result.per_tag_sent[name]
            received = result.raw_bits[: len(sent)]
            errors = sum(1 for s, r in zip(sent, received) if s != r)
            bits_sent += len(sent)
            bit_errors += errors
            if self.metrics_enabled:
                self._fleet_tag_bits.labels(tag=name).inc(len(sent))
                self._fleet_tag_errors.labels(tag=name).inc(errors)
                self._fleet_tag_delivered.labels(tag=name).inc(
                    len(sent) - errors
                )
        n_failed = n_subframes - int(result.block_ack.bitmap).bit_count()
        if self.metrics_enabled:
            (
                self._fleet_q_answered
                if result.responded
                else self._fleet_q_idle
            ).inc()
            self._fleet_subframes.inc(n_subframes)
            if n_failed:
                self._fleet_subframes_bad.inc(n_failed)
            if bits_sent:
                self._fleet_ber.observe(bit_errors / bits_sent)
        if self.writer is not None:
            index = self._query_index
            record = {
                "schema": TRACE_SCHEMA,
                "kind": "query",
                "index": index,
                "ssn": int(result.block_ack.ssn),
                "detected": bool(result.responded),
                "bits_sent": int(bits_sent),
                "bit_errors": int(bit_errors),
                "subframes": int(n_subframes),
                "subframes_failed": int(n_failed),
                "bitmap": f"{result.block_ack.bitmap:016x}",
                "states_digest": states_digest(
                    state for row in state_rows for state in row
                ),
                "fading_digest": fading_rows_digest(fading_rows),
                "cycle_s": float(cycle_s),
            }
            if self.sampler.keep(index):
                self.writer.write(record)
            else:
                self._tail.push(record)
        self._query_index += 1

    def on_fleet_round(self, stats: "FleetRoundStats") -> None:
        """One AP finished a polling round (multi-AP network layer)."""
        if self.metrics_enabled:
            ap = stats.ap
            self._fleet_rounds.labels(ap=ap).inc()
            self._fleet_round_queries.labels(ap=ap).inc(stats.n_queries)
            self._fleet_round_responses.labels(ap=ap).inc(
                stats.n_responded
            )
            self._fleet_round_bits.labels(ap=ap).inc(stats.bits_sent)
            self._fleet_round_bit_errors.labels(ap=ap).inc(
                stats.bit_errors
            )
            self._fleet_round_duration.labels(ap=ap).observe(
                stats.duration_s
            )

    def on_handoff(self, from_ap: str, to_ap: str) -> None:
        """One tag reassigned between reader cells by mobility."""
        if self.metrics_enabled:
            self._fleet_handoffs.labels(
                from_ap=from_ap, to_ap=to_ap
            ).inc()

    def on_mobility_tick(self, invalidated_rows: int) -> None:
        """One mobility tick advanced across the network's fleets."""
        if self.metrics_enabled:
            self._fleet_mobility_ticks.inc()
            if invalidated_rows:
                self._fleet_invalidations.inc(invalidated_rows)

    def on_channel_access(
        self, ap: str, delay_s: float, *, stalled: bool
    ) -> None:
        """One query's CSMA channel-access wait in one cell."""
        if self.metrics_enabled:
            self._fleet_access_delay.labels(ap=ap).observe(delay_s)
            if stalled:
                self._fleet_stalls.labels(ap=ap).inc()

    def on_session(
        self,
        stats: "SessionStats",
        stage_timings: Mapping[str, Any],
    ) -> None:
        """A measurement session finished a run."""
        if self.metrics_enabled:
            self._sessions.inc()
        if self.writer is not None:
            for record in self._tail.drain():
                self.writer.write(record)
            self.writer.write(
                {
                    "schema": TRACE_SCHEMA,
                    "kind": "session",
                    "queries": int(stats.queries),
                    "bits_sent": int(stats.bits_sent),
                    "bit_errors": int(stats.bit_errors),
                    "missed_triggers": int(stats.missed_triggers),
                    "elapsed_s": float(stats.elapsed_s),
                    "ber": float(stats.ber),
                    "stage_timings": {
                        group: dict(stages)
                        for group, stages in stage_timings.items()
                    },
                }
            )
            self.writer.flush()

    def on_chunk_retry(self, event) -> None:
        """One engine fault-tolerance decision (a ``RetryEvent``).

        Called by the coordinator's scheduler on the *live* telemetry
        (``repro.obs.runtime.active()``) when a chunk is retried, falls
        back to the serial executor, or fails terminally.  Counted under
        ``runner_chunk_retries_total{reason}`` and — when tracing —
        written as a ``retry`` trace record.
        """
        if self.metrics_enabled:
            self._chunk_retries.labels(reason=event.reason).inc()
        if self.writer is not None:
            self.writer.write(
                {
                    "schema": TRACE_SCHEMA,
                    "kind": "retry",
                    "chunk": int(event.chunk_index),
                    "first_unit": int(event.first_unit),
                    "attempt": int(event.attempt),
                    "reason": str(event.reason),
                    "action": str(event.action),
                }
            )
            self.writer.flush()

    def observe_sinrs(self, values) -> None:
        """A batch of effective SINRs, in row-major subframe order."""
        if self.metrics_enabled:
            self._sinr.observe_many(values)

    def on_trigger(self, detected: bool) -> None:
        if self.metrics_enabled:
            (self._trigger_hit if detected else self._trigger_miss).inc()

    def on_tag_bits(self, n_bits: int, n_aligned: int) -> None:
        if self.metrics_enabled and n_bits:
            self._tag_bits.inc(n_bits)
            self._toggle_ok.inc(n_aligned)
            self._toggle_bad.inc(n_bits - n_aligned)

    def on_scoreboard_record(self) -> None:
        if self.metrics_enabled:
            self._sb_records.inc()

    def on_scoreboard_reset(self) -> None:
        if self.metrics_enabled:
            self._sb_resets.inc()

    def on_scoreboard_bulk(self, *, records: int, resets: int) -> None:
        """The scoreboard traffic of the queries a chunk elides.

        The engine replays only the *last* query of a chunk onto the
        real scoreboard; this hook accounts for the ``records`` /
        ``resets`` a per-query scoreboard would have performed for the
        earlier queries, so scoreboard counters do not depend on
        chunking.
        """
        if self.metrics_enabled:
            if records:
                self._sb_records.inc(records)
            if resets:
                self._sb_resets.inc(resets)

    # ------------------------------------------------------------------
    # Snapshots

    def metrics_snapshot(self) -> dict[str, Any]:
        return self.registry.snapshot()

    def stage_snapshot(self) -> dict[str, dict[str, dict[str, float]]]:
        """Merged per-group stage-counter snapshot."""
        snapshot: dict[str, dict[str, dict[str, float]]] = {}
        for group, counter_list in sorted(self._stage_groups.items()):
            merged = StageCounters()
            for counters in counter_list:
                merged.merge(counters)
            snapshot[group] = merged.as_dict()
        return snapshot

    def chunk_snapshot(self) -> dict[str, Any]:
        """What a worker ships back through the chunk-result channel."""
        return {
            "metrics": (
                self.metrics_snapshot() if self.metrics_enabled else None
            ),
            "stage": self.stage_snapshot(),
        }

    def close(self) -> None:
        """Flush and close the trace writer (if any)."""
        if self.writer is not None:
            for record in self._tail.drain():
                self.writer.write(record)
            self.writer.close()


@dataclass(frozen=True)
class TelemetrySpec:
    """Picklable telemetry configuration for worker processes.

    Workers cannot share a live :class:`Telemetry` (registries and trace
    writers do not cross process boundaries); they build a fresh one
    from this spec per chunk and ship its :meth:`Telemetry.chunk_snapshot`
    back with the chunk's results.  Tracing is deliberately absent here:
    JSONL traces are a single-process concern (use a live
    :class:`Telemetry` and the serial executor, as ``repro trace run``
    does), while metrics and stage counters aggregate cleanly.
    """

    metrics: bool = True

    def build(self) -> Telemetry:
        return Telemetry(metrics=self.metrics)
