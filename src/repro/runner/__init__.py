"""Parallel experiment engine: deterministic multi-process sweeps.

Public surface:

* :class:`SweepSpec` / :class:`SweepResult` — declarative sweep grid
  and ordered results with per-worker timing counters.
* :func:`run_sweep` — evaluate a work function at every grid point.
* :func:`run_sessions` — run many measurement sessions as work units.
* :func:`run_units` — the raw primitive beneath both.
* :class:`UnitContext` — per-unit seeding handle (the determinism
  contract lives here: derive *all* randomness from it).

Fault tolerance (see ``docs/fault_tolerance.md``):

* :class:`RetryPolicy` — retries, backoff, chunk deadline, circuit
  breaker; thread through ``run_units`` / ``run_sweep`` /
  ``run_sessions`` via ``retry=``.
* :class:`FaultSpec` — deterministic fault injection for tests and
  ``repro sweep --inject-faults``.
* :func:`load_checkpoint` / :func:`checkpoint_fingerprint` — the
  chunk-granular checkpoint files written by ``checkpoint=``.

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
    SweepResult,
    SweepSpec,
    UnitContext,
    WorkerTiming,
    WorkUnitError,
    resolve_executor,
    run_sweep,
    run_units,
)
from .faults import (
    CorruptPayload,
    FaultSpec,
    InjectedFault,
    RetryEvent,
    RetryPolicy,
)
from .sessions import run_sessions
from .transport import (
    EncodedChunk,
    TransportError,
    TransportEvent,
)
from .workers import FleetSpec, SessionSpec

__all__ = [
    "CheckpointError",
    "ChunkProgress",
    "CheckpointState",
    "CorruptPayload",
    "EncodedChunk",
    "FaultSpec",
    "FleetSpec",
    "InjectedFault",
    "RetryEvent",
    "RetryPolicy",
    "SessionSpec",
    "SweepError",
    "SweepResult",
    "SweepSpec",
    "TelemetryAggregate",
    "TelemetrySpec",
    "TransportError",
    "TransportEvent",
    "UnitContext",
    "WorkUnitError",
    "WorkerTiming",
    "checkpoint_fingerprint",
    "load_checkpoint",
    "resolve_executor",
    "run_sessions",
    "run_sweep",
    "run_units",
]
