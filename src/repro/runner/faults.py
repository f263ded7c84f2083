"""Retry policy and retry events: how the engine tolerates failures.

Long sweeps meet real adversity: a worker process dies, a chunk hangs
on a pathological parameter point.  The execution layer should degrade
gracefully, retry deterministically, and never lose finished work.

* :class:`RetryPolicy` — per-chunk retry budget, exponential backoff
  with deterministic jitter, an in-worker chunk deadline, and a circuit
  breaker that abandons the process pool for the always-correct serial
  executor when the executor itself keeps failing.
* :class:`RetryEvent` — one decision the scheduler made under it.

Both compose with the determinism contract rather than fighting it:
work functions draw all randomness from their :class:`UnitContext`, so
a retried, resumed, or serial-fallback chunk recomputes bit-identical
values, and backoff jitter derives from the run's seed rather than
wall-clock entropy.  The chaos tests inject failures with a wrapper
around the work function (``tests/faults.py``); nothing here does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RetryEvent", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How the engine tolerates chunk and executor failures.

    Attributes:
        max_attempts: attempts per chunk before its first failing unit
            is raised as a terminal :class:`WorkUnitError`.  Executor
            breakdowns (a worker process dying mid-chunk) do not count
            against this — they count against the circuit breaker.
        timeout_s: per-chunk deadline enforced *inside* the executing
            process via ``SIGALRM``; a chunk that exceeds it fails with
            a timeout and is retried like any other failure.  ``None``
            disables the deadline.  (POSIX main-thread only; elsewhere
            the deadline is silently unavailable.)
        backoff_s: base coordinator-side sleep before a retry round;
            attempt ``k`` waits ``backoff_s * backoff_factor**(k-1)``
            (capped at ``backoff_max_s``) plus jitter.  The default of 0
            keeps tests instant.
        backoff_factor: exponential growth per attempt.
        backoff_max_s: cap on a single backoff sleep.
        jitter: fraction of the computed delay added as deterministic
            jitter drawn from ``derived_seed(seed, chunk, attempt)`` —
            retries desynchronize without wall-clock randomness.
        breaker_failures: executor-level failures (broken process pool,
            unpicklable work function) tolerated before the circuit
            breaker trips and the run falls back to the serial executor
            for all unfinished chunks.
    """

    max_attempts: int = 3
    timeout_s: float | None = None
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0
    jitter: float = 0.1
    breaker_failures: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.backoff_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.breaker_failures < 1:
            raise ValueError("breaker_failures must be >= 1")

    def backoff_delay(
        self, attempt: int, *, seed: int = 0, chunk_index: int = 0
    ) -> float:
        """Seconds to wait before retry ``attempt`` (>= 1) of a chunk.

        Deterministic in its arguments: the exponential schedule plus a
        jitter fraction drawn from a substream keyed on
        ``(seed, chunk_index, attempt)``.
        """
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        delay = min(
            self.backoff_s * self.backoff_factor ** (attempt - 1),
            self.backoff_max_s,
        )
        if delay <= 0 or self.jitter == 0:
            return delay
        rng = np.random.default_rng(
            np.random.SeedSequence(
                seed, spawn_key=(0xBAC0FF, chunk_index, attempt)
            )
        )
        return delay * (1.0 + self.jitter * float(rng.random()))


@dataclass(frozen=True)
class RetryEvent:
    """One fault-tolerance decision made by the engine's scheduler.

    Attributes:
        chunk_index: which chunk (position in the run's chunk list).
        first_unit: the chunk's first unit index (stable across runs).
        attempt: the attempt that failed (0-based).
        reason: ``"unit-error"``, ``"timeout"`` or ``"executor"``
            (worker process died / pool unusable).
        action: ``"retry"``, ``"serial-fallback"`` or ``"failed"``
            (terminal — the retry budget is exhausted).
    """

    chunk_index: int
    first_unit: int
    attempt: int
    reason: str
    action: str
