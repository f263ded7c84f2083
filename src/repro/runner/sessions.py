"""Run many measurement sessions through the parallel engine.

A :class:`repro.core.session.MeasurementSession` is inherently
sequential *inside* (each query cycle mutates tag and channel state),
but independent sessions — repeated runs, per-seed Monte-Carlo
repetitions, per-scenario measurements — parallelize perfectly.  Each
session is one work unit: the builder reconstructs the system inside
the worker from the unit's seed, so no simulator state ever crosses a
process boundary.
"""

from __future__ import annotations

import functools
import os
from typing import Any, Callable

from ..core.session import MeasurementSession, SessionStats
from ..obs.runtime import attach_active
from ..obs.telemetry import TelemetrySpec
from .engine import ChunkProgress, SweepResult, UnitContext, run_units
from .faults import RetryPolicy

__all__ = ["run_sessions"]

SessionBuilder = Callable[[UnitContext], MeasurementSession]

#: Default telemetry for session runs: no metric families, but stage
#: counters are always snapshotted and merged, so ``result.telemetry``
#: can answer "where did worker time go?" after a parallel run.
_STAGE_COUNTERS_ONLY = TelemetrySpec(metrics=False)


def _session_unit(
    ctx: UnitContext,
    build: SessionBuilder,
    queries: int | None,
    duration_s: float | None,
) -> SessionStats:
    session = build(ctx)
    attach_active(session.system)
    if queries is not None:
        return session.run_queries(queries)
    assert duration_s is not None
    return session.run_for(duration_s)


def run_sessions(
    build: SessionBuilder,
    n_sessions: int,
    *,
    queries: int | None = None,
    duration_s: float | None = None,
    seed: int = 0,
    parameters: list[dict[str, Any]] | None = None,
    n_workers: int = 1,
    chunk_size: int | None = None,
    executor: str = "auto",
    telemetry: TelemetrySpec | None = _STAGE_COUNTERS_ONLY,
    retry: RetryPolicy | None = None,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = True,
    on_chunk: Callable[[ChunkProgress], None] | None = None,
) -> SweepResult:
    """Run ``n_sessions`` independent sessions; values are SessionStats.

    Args:
        build: called once per unit *inside the worker* with the unit's
            :class:`UnitContext`; must return a ready
            :class:`MeasurementSession` and be picklable for the process
            executor.  Derive all randomness from the context
            (``ctx.seed`` / ``ctx.rng(...)``) to keep the determinism
            contract.  Prefer shipping a plain config-style callable
            (e.g. :class:`repro.runner.workers.SessionSpec`) rather
            than closing over live simulator objects: configs pickle
            small and rebuild fresh state inside the worker.
        n_sessions: number of sessions (0 is allowed: empty result).
        queries: run exactly this many query cycles per session...
        duration_s: ...or this much simulated time (exactly one of the
            two must be given).
        seed: root seed for the per-session substreams.
        parameters: optional per-session parameter dicts (len must be
            ``n_sessions``) carried into ``ctx.parameters`` and the
            result points; defaults to ``{"session": i}``.
        n_workers / chunk_size / executor: see
            :func:`repro.runner.engine.run_units`.
        telemetry: per-chunk :class:`repro.obs.TelemetrySpec`.  The
            default collects stage counters only (near-zero cost) so
            ``result.telemetry.stage_timings()`` reports merged worker
            time after parallel runs; pass ``TelemetrySpec()`` for full
            metrics, or ``None`` to leave a caller-activated live
            telemetry (e.g. a tracing one) in charge.
        retry / checkpoint / resume: fault tolerance and
            chunk-granular checkpoint/resume — see
            :func:`repro.runner.engine.run_units` and
            ``docs/fault_tolerance.md``.  Session results resume
            bit-identically because each session rebuilds from its
            unit's seed.
        on_chunk: per-chunk progress observer
            (:class:`repro.runner.engine.ChunkProgress`); see
            :func:`repro.runner.engine.run_units`.
    """
    if n_sessions < 0:
        raise ValueError("n_sessions must be >= 0")
    if (queries is None) == (duration_s is None):
        raise ValueError("give exactly one of queries / duration_s")
    if parameters is not None and len(parameters) != n_sessions:
        raise ValueError("parameters must have one entry per session")
    units = [
        UnitContext(
            index=i,
            parameters=(
                parameters[i] if parameters is not None else {"session": i}
            ),
            root_seed=seed,
        )
        for i in range(n_sessions)
    ]
    fn = functools.partial(
        _session_unit,
        build=build,
        queries=queries,
        duration_s=duration_s,
    )
    return run_units(
        fn,
        units,
        seed=seed,
        n_workers=n_workers,
        chunk_size=chunk_size,
        executor=executor,
        telemetry=telemetry,
        retry=retry,
        checkpoint=checkpoint,
        resume=resume,
        on_chunk=on_chunk,
    )
