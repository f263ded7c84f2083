"""Parallel experiment engine: deterministic multi-process sweeps.

Public surface:

* :class:`SweepSpec` / :class:`SweepResult` — declarative sweep grid
  and ordered results (:class:`SweepPoint` per unit) with per-worker
  timing counters.
* :func:`run_sweep` — evaluate a work function at every grid point.
* :func:`run_sessions` — run many measurement sessions as work units.
* :func:`run_units` — the raw primitive beneath both.
* :class:`UnitContext` — per-unit seeding handle (the determinism
  contract lives here: derive *all* randomness from it).

Fault tolerance (see ``docs/fault_tolerance.md``):

* :class:`RetryPolicy` — retries, backoff, chunk deadline, circuit
  breaker; thread through ``run_units`` / ``run_sweep`` /
  ``run_sessions`` via ``retry=``.  Each :class:`RetryEvent` records
  one decision (reasons ``unit-error``, ``timeout``, ``executor``).
* :func:`load_checkpoint` / :func:`checkpoint_fingerprint` — the
  chunk-granular checkpoint files written by ``checkpoint=``.

Pooled chunks return their values through the executor's own result
pickle and settle as each one finishes: the checkpoint spill, the
``on_chunk`` progress report and the observer's chance to stop the run
all come per chunk, not per pool round.

See ``docs/running_experiments.md`` for usage and the determinism
contract, and :mod:`repro.runner.workers` for ready-made picklable
work functions.
"""

from ..obs.aggregate import TelemetryAggregate
from ..obs.telemetry import TelemetrySpec
from .checkpoint import (
    CheckpointError,
    CheckpointState,
    checkpoint_fingerprint,
    load_checkpoint,
)
from .engine import (
    ChunkProgress,
    SweepError,
    SweepPoint,
    SweepResult,
    SweepSpec,
    UnitContext,
    WorkerTiming,
    WorkUnitError,
    run_sweep,
    run_units,
)
from .faults import RetryEvent, RetryPolicy
from .sessions import run_sessions
from .workers import FleetSpec, SessionSpec

__all__ = [
    "CheckpointError",
    "ChunkProgress",
    "CheckpointState",
    "FleetSpec",
    "RetryEvent",
    "RetryPolicy",
    "SessionSpec",
    "SweepError",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "TelemetryAggregate",
    "TelemetrySpec",
    "UnitContext",
    "WorkUnitError",
    "WorkerTiming",
    "checkpoint_fingerprint",
    "load_checkpoint",
    "run_sessions",
    "run_sweep",
    "run_units",
]
