"""Multi-query measurement sessions: BER and throughput over time.

The paper's experiments run the tag for one minute at a time (§6.2: "In
each measurement, the tag sends data for one minute"), comparing decoded
bits against the expected pattern to measure BER, and counting bits sent
successfully per second for throughput.  This module is that methodology
as code.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..seeding import component_rng
from .query import QueryFrame
from .system import QueryResult, WiTagSystem
from .throughput import block_ack_airtime_s

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..runner.engine import SweepResult, UnitContext

Bits = list[int]


@dataclass(frozen=True)
class SessionStats:
    """Aggregate results of a measurement session.

    Attributes:
        bits_sent: total tag bits attempted.
        bit_errors: received bits differing from sent bits.
        elapsed_s: simulated wall-clock time consumed by all cycles.
        queries: number of query cycles run.
        missed_triggers: cycles in which the tag failed to detect the
            query (no bits transferred; time still consumed).
    """

    bits_sent: int
    bit_errors: int
    elapsed_s: float
    queries: int
    missed_triggers: int

    @property
    def ber(self) -> float:
        """Bit error rate (0 when no bits were sent)."""
        return self.bit_errors / self.bits_sent if self.bits_sent else 0.0

    @property
    def throughput_bps(self) -> float:
        """Bits successfully delivered per second (paper §6.2)."""
        if self.elapsed_s <= 0:
            return 0.0
        return (self.bits_sent - self.bit_errors) / self.elapsed_s

    @property
    def goodput_bps(self) -> float:
        """Alias of :attr:`throughput_bps` (naming used in some plots)."""
        return self.throughput_bps


def _aggregate(results: list[QueryResult], elapsed_s: float) -> SessionStats:
    """Session statistics over ``results`` taking ``elapsed_s``."""
    return SessionStats(
        bits_sent=sum(r.n_bits for r in results),
        bit_errors=sum(r.bit_errors for r in results),
        elapsed_s=elapsed_s,
        queries=len(results),
        missed_triggers=sum(1 for r in results if not r.detected),
    )


@dataclass
class MeasurementSession:
    """Runs a WiTAG system for a simulated duration with random tag data.

    Every run goes through one loop (:meth:`_run`) that feeds the
    batched session engine a chunk at a time: a per-query prologue
    builds each frame and draws its access delay in scalar order,
    accumulating the simulated time, until the duration is covered, the
    query count is reached or the chunk is full; then
    :meth:`WiTagSystem.run_queries_batch` decodes the chunk.  Each
    simulation component owns its generator and the engine consumes
    every stream in scalar order, so results are bitwise identical to
    the scalar per-query loop for any chunk size — contended and
    encrypted sessions included (see the determinism contract on
    ``run_queries_batch``).

    Attributes:
        system: the deployment under test.
        rng: source for the random data bits the tag transmits.
        session_fast_path: ``False`` runs the scalar per-query loop
            (:meth:`WiTagSystem.run_query`) instead of the batch engine.
            It exists as the reference the batch engine is verified
            against.
        batch_queries: queries per batch-engine chunk; has no effect on
            results.  The decode's working set is bounded per block of
            queries inside the error model, not by this chunk size.
    """

    system: WiTagSystem
    rng: np.random.Generator = field(
        default_factory=lambda: component_rng("session")
    )
    results: list[QueryResult] = field(default_factory=list)
    session_fast_path: bool = True
    batch_queries: int = 256

    def run_for(self, duration_s: float) -> SessionStats:
        """Run query cycles until ``duration_s`` of simulated time passes.

        Returns the stats of this call's cycles; :meth:`stats`
        aggregates over every call.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        return self._run(duration_s, math.inf)

    def run_queries(self, count: int) -> SessionStats:
        """Run a fixed number of query cycles; stats of this call only."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return self._run(math.inf, count)

    def _run(self, duration_s: float, count: float) -> SessionStats:
        """Run cycles until ``duration_s`` has passed or ``count`` ran.

        ``elapsed`` gains each cycle's ``access + airtime + SIFS +
        block ACK`` in the scalar loop's float order, so the stopping
        point and the returned ``elapsed_s`` are bitwise the scalar
        loop's.
        """
        if self.batch_queries < 1:
            raise ValueError(
                f"batch_queries must be >= 1, got {self.batch_queries}"
            )
        system = self.system
        sifs = system.config.band.sifs_s
        ba_airtime_s = block_ack_airtime_s()
        first = len(self.results)
        elapsed = 0.0
        done = 0
        while done < count and elapsed < duration_s:
            if not self.session_fast_path:
                elapsed += self._one_cycle()
                done += 1
                continue
            frames: list[QueryFrame] = []
            delays: list[float] = []
            stop = min(count, done + self.batch_queries)
            while done < stop and elapsed < duration_s:
                frame, delay = system.draw_cycle()
                elapsed += delay + frame.airtime_s + sifs + ba_airtime_s
                frames.append(frame)
                delays.append(delay)
                done += 1
            self.results.extend(
                system.run_queries_batch(
                    frames, delays, load_bits=self._ensure_tag_bits
                )
            )
        return self._finish(_aggregate(self.results[first:], elapsed))

    def _finish(self, stats: SessionStats) -> SessionStats:
        """Emit the end-of-run session telemetry record, if attached."""
        telemetry = self.system.telemetry
        if telemetry is not None:
            telemetry.on_session(stats, self.stage_timings())
        return stats

    def _one_cycle(self) -> float:
        self._ensure_tag_bits()
        result = self.system.run_query()
        self.results.append(result)
        return result.cycle_s

    def _ensure_tag_bits(self) -> None:
        """Top up the tag's queue for one query (scalar draw order)."""
        bits_needed = self.system.config.bits_per_query
        if self.system.tag.pending_bits < bits_needed:
            fresh = self.rng.integers(0, 2, size=bits_needed).tolist()
            self.system.load_tag_bits([int(b) for b in fresh])

    def stats(self, elapsed_s: float | None = None) -> SessionStats:
        """Aggregate statistics over all cycles run so far."""
        if elapsed_s is None:
            elapsed_s = sum(r.cycle_s for r in self.results)
        return _aggregate(self.results, elapsed_s)

    def per_query_ber(self) -> list[float]:
        """BER of each individual query (for CDF experiments)."""
        return [
            r.bit_errors / r.n_bits for r in self.results if r.n_bits > 0
        ]

    def stage_timings(self) -> dict[str, dict[str, dict[str, float]]]:
        """Cumulative per-stage wall-clock spent by this session's system.

        Groups the system-level query-cycle counters and the error
        model's vectorized-decode counters (see :mod:`repro.perf`); a
        traced session record carries exactly this structure, and
        ``repro trace export --format flamegraph`` renders it.
        """
        return {
            "system": self.system.counters.as_dict(),
            "error_model": self.system.error_model.counters.as_dict(),
        }


#: Dedup keys for which the small-query serial-fallback warning already
#: fired in this process.  A retried or checkpoint-resumed job calls
#: :func:`run_parallel_sessions` once per (re)dispatch with the same
#: configuration; warning on every one of them buried real signal, so
#: the fallback now warns once per key and stays silent after.
_small_query_warned: set = set()


def reset_small_query_warnings() -> None:
    """Forget which callers already saw the small-query fallback warning.

    Test hook: the dedup set is process-global, so suites asserting the
    warning fires (or fires exactly once) reset it first to stay
    independent of execution order.
    """
    _small_query_warned.clear()


def run_parallel_sessions(
    build: "Callable[[UnitContext], MeasurementSession]",
    n_sessions: int,
    *,
    queries: int | None = None,
    duration_s: float | None = None,
    seed: int = 0,
    n_workers: int = 1,
    warn_key: "object | None" = None,
    **engine_kwargs,
) -> "SweepResult":
    """Run independent sessions through the parallel engine.

    Thin forwarding wrapper around :func:`repro.runner.run_sessions`
    (imported lazily — the runner builds on this module) so session
    consumers get parallel execution without importing the runner
    package themselves.  ``result.values`` is a list of
    :class:`SessionStats`, one per session, in session order and
    bit-identical for any ``n_workers``.

    When the per-session query count is smaller than the requested
    chunk size, process-pool dispatch would cost more than the work
    itself; matching ``run_units`` behaviour, this falls back to the
    serial executor with a warning instead of raising.  The warning is
    deduplicated per ``warn_key`` (defaulting to the
    ``(queries, chunk_size)`` pair) so a job that re-dispatches the
    same configuration — a retry loop, a checkpoint resume, a job
    server re-running a spec — warns once, not once per dispatch; the
    serial fallback itself still applies every time.
    """
    from ..runner import run_sessions

    chunk_size = engine_kwargs.get("chunk_size")
    if (
        queries is not None
        and chunk_size is not None
        and queries < chunk_size
    ):
        key = warn_key if warn_key is not None else (queries, chunk_size)
        if key not in _small_query_warned:
            _small_query_warned.add(key)
            warnings.warn(
                f"n_queries ({queries}) < chunk_size ({chunk_size}): "
                "parallel dispatch would dominate the work; falling back "
                "to the serial executor",
                RuntimeWarning,
                stacklevel=2,
            )
        engine_kwargs = dict(engine_kwargs, executor="serial")

    return run_sessions(
        build,
        n_sessions,
        queries=queries,
        duration_s=duration_s,
        seed=seed,
        n_workers=n_workers,
        **engine_kwargs,
    )
