"""Multi-query measurement sessions: BER and throughput over time.

The paper's experiments run the tag for one minute at a time (§6.2: "In
each measurement, the tag sends data for one minute"), comparing decoded
bits against the expected pattern to measure BER, and counting bits sent
successfully per second for throughput.  This module is that methodology
as code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..seeding import component_rng
from .query import QueryFrame
from .system import QueryResult, WiTagSystem
from .throughput import block_ack_airtime_s

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
    system's engine a chunk at a time: a per-query prologue builds each
    frame and draws its access delay in order, accumulating the
    simulated time, until the duration is covered, the query count is
    reached or the chunk is full; then
    :meth:`WiTagSystem.run_queries_batch` decodes the chunk.  Each
    simulation component owns its generator and the engine consumes
    every stream one query after another, so results are bitwise
    identical for any chunk size — contended and encrypted sessions
    included (see the determinism contract on ``run_queries_batch``).

    Attributes:
        system: the deployment under test.
        rng: source for the random data bits the tag transmits.
        batch_queries: queries per batch-engine chunk; has no effect on
            results.  The decode's working set is bounded per block of
            queries inside the error model, not by this chunk size.
    """

    system: WiTagSystem
    rng: np.random.Generator = field(
        default_factory=lambda: component_rng("session")
    )
    results: list[QueryResult] = field(default_factory=list)
    batch_queries: int = 256

    def run_for(self, duration_s: float) -> SessionStats:
        """Run query cycles until ``duration_s`` of simulated time passes.

        Returns the stats of this call's cycles; :meth:`stats`
        aggregates over every call.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        return self._call(duration_s, math.inf)

    def run_queries(self, count: int) -> SessionStats:
        """Run a fixed number of query cycles; stats of this call only."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return self._call(math.inf, count)

    def _call(self, duration_s: float, count: float) -> SessionStats:
        """:meth:`_run`; with telemetry, a ``core.session`` span too."""
        telemetry = self.system.telemetry
        if telemetry is None:
            return self._run(duration_s, count)
        with telemetry.spans.capture("core.session") as call:
            stats = self._run(duration_s, count)
        telemetry.on_session(stats, call.snapshot())
        return stats

    def _run(self, duration_s: float, count: float) -> SessionStats:
        """Run cycles until ``duration_s`` has passed or ``count`` ran.

        ``elapsed`` gains each cycle's ``access + airtime + SIFS +
        block ACK`` one cycle at a time, so the stopping point and the
        returned ``elapsed_s`` do not depend on the chunk size.
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
        return _aggregate(self.results[first:], elapsed)

    def _ensure_tag_bits(self) -> None:
        """Top up the tag's queue for one query, before the tag runs it.

        The bits come straight from the session generator, 0 or 1 by
        construction, so they skip :meth:`TagStateMachine.load_bits`'
        check of caller input.
        """
        queue = self.system.tag.data_queue
        bits_needed = self.system.config.bits_per_query
        if len(queue) < bits_needed:
            queue += self.rng.integers(0, 2, size=bits_needed).tolist()

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
