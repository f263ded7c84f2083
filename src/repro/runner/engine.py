"""Parallel experiment engine with deterministic seeding.

Every BER/throughput experiment in this repo reduces to "evaluate many
independent work units": the points of a parameter sweep, repeated
measurement sessions, Monte-Carlo repetitions.  This module executes
those units across worker processes while guaranteeing a hard
determinism contract:

    **A sweep's results are bit-identical regardless of worker count,
    chunking, or scheduling order.**

The contract holds because randomness is never shared between units.
Work unit ``index`` of a sweep seeded with ``seed`` draws all of its
randomness from ``numpy`` SeedSequence children keyed ``(index, ...)``
(see :mod:`repro.seeding`), which depend only on the root seed and the
unit's position — not on which process runs it, how units are batched
into tasks, or how many siblings exist.  Workers therefore never
communicate randomness; they only return values, which the coordinator
reassembles in unit order.

Units are batched into *chunks* (several units per submitted task) to
amortize inter-process pickling overhead; chunking is a pure scheduling
concern and cannot affect results.  ``n_workers`` alone picks the
executor: a serial one runs everything in-process for ``n_workers=1``
and on platforms without ``fork``-style multiprocessing; any other
run uses a process pool.

Fault tolerance extends the contract rather than weakening it.  With a
:class:`repro.runner.faults.RetryPolicy`, failed chunks are retried
(exponential backoff, deterministic jitter), hung chunks are cut off by
an in-worker deadline, and repeated executor breakdowns trip a circuit
breaker onto the serial executor — and because every unit's values are
a pure function of its :class:`UnitContext`, a retried, resumed (see
:mod:`repro.runner.checkpoint`), or serial-fallback run produces a
bit-identical :class:`SweepResult`.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from ..analysis.reporting import Table
from ..obs.aggregate import TelemetryAggregate
from ..obs.runtime import activate as _activate_telemetry
from ..obs.runtime import active as _active_telemetry
from ..obs.telemetry import TelemetrySpec
from ..seeding import derived_seed
from .checkpoint import (
    CheckpointError,
    CheckpointWriter,
    CompletedChunk,
    checkpoint_fingerprint,
    load_checkpoint,
)
from .faults import RetryEvent, RetryPolicy

__all__ = [
    "ChunkProgress",
    "SweepError",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "UnitContext",
    "WorkUnitError",
    "WorkerTiming",
    "run_sweep",
    "run_units",
]


class SweepError(RuntimeError):
    """The engine could not complete a sweep."""


class WorkUnitError(SweepError):
    """A work function raised inside a worker.

    Carries enough context to debug without the worker's interpreter:
    the unit index and parameters, the number of attempts the retry
    policy granted the chunk, plus the formatted remote traceback
    (exception objects themselves may not survive pickling).
    """

    def __init__(
        self,
        index: int,
        parameters: dict[str, Any],
        cause: str,
        remote_traceback: str,
        attempts: int = 1,
        chunk_index: int = -1,
        retries: tuple = (),
    ) -> None:
        self.index = index
        self.parameters = parameters
        self.cause = cause
        self.remote_traceback = remote_traceback
        self.attempts = attempts
        self.chunk_index = chunk_index
        self.retries = retries
        super().__init__(
            f"work unit {index} (parameters {parameters!r}) failed after "
            f"{attempts} attempt(s): {cause}"
            f"\n--- worker traceback ---\n{remote_traceback}"
        )


class _ChunkTimeout(Exception):
    """Raised inside a worker when a chunk exceeds its deadline."""


@dataclass(frozen=True)
class UnitContext:
    """Everything a work function may depend on for one unit.

    Work functions receive exactly one :class:`UnitContext` and must
    derive all randomness from it — that is what makes results
    independent of scheduling.

    Attributes:
        index: the unit's position in the sweep (0-based, stable).
        parameters: the unit's parameter-axis values.
        root_seed: the sweep's root seed.
    """

    index: int
    parameters: dict[str, Any]
    root_seed: int

    @property
    def seed(self) -> int:
        """Derived integer seed for APIs that take ``seed: int``."""
        return derived_seed(self.root_seed, self.index)

    def rng(self, stream: int = 0) -> np.random.Generator:
        """An independent generator for this unit.

        Distinct ``stream`` values give statistically independent
        generators, so one unit can feed several stochastic components.
        """
        if stream < 0:
            raise ValueError("stream must be >= 0")
        sequence = np.random.SeedSequence(
            self.root_seed, spawn_key=(self.index, stream)
        )
        return np.random.default_rng(sequence)


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated unit: its parameters, value and derived seed."""

    parameters: dict[str, Any]
    value: Any
    seed: int


@dataclass(frozen=True)
class WorkerTiming:
    """Per-worker progress/timing counters (observability hook).

    Attributes:
        worker: OS pid of the worker process ("serial" runs report the
            coordinator's own pid; resumed chunks report the pid that
            originally computed them).
        n_chunks: tasks the worker executed.
        n_units: work units the worker executed.
        busy_s: wall-clock the worker spent inside work functions.
    """

    worker: int
    n_chunks: int
    n_units: int
    busy_s: float


@dataclass(frozen=True)
class ChunkProgress:
    """One chunk's completion, as reported to an ``on_chunk`` observer.

    The coordinator invokes the observer on its own thread, once per
    resolved chunk: first for every chunk restored from a checkpoint
    (``resumed=True``, in chunk order, before any execution starts),
    then for each freshly executed chunk as soon as it finishes (in
    completion order, right after its checkpoint spill).  This is the
    hook that makes the engine drivable from an event loop — a server
    can forward each report into an ``asyncio`` queue and stream live
    progress without polling (see :mod:`repro.serve`).

    An exception raised by the observer aborts the run and propagates
    to the caller: chunks not yet started are cancelled, completed
    chunks stay spilled in the checkpoint, and chunks the pool had
    already started are spilled as they finish (without further
    reports), so observers may raise deliberately to implement
    cooperative cancellation at chunk granularity.

    Attributes:
        chunk_index: position in the run's chunk list.
        n_chunks: total chunks in the run.
        chunks_done: chunks resolved so far, this one included.
        first_index: the chunk's first unit index.
        n_units: units the chunk holds.
        worker: pid that computed the chunk (original pid for resumed).
        busy_s: wall-clock spent inside the chunk's work functions.
        resumed: the chunk came from a checkpoint, not execution.
    """

    chunk_index: int
    n_chunks: int
    chunks_done: int
    first_index: int
    n_units: int
    worker: int
    busy_s: float
    resumed: bool = False


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a Cartesian parameter sweep.

    Attributes:
        axes: name -> values; the grid is the Cartesian product in axis
            insertion order.
        seed: root seed; unit ``i`` derives its streams from
            ``SeedSequence(seed, spawn_key=(i, ...))``.
        chunk_size: units per submitted task, and the one place a sweep
            sets it; ``None`` picks a size that gives each worker a few
            tasks.
    """

    axes: dict[str, list[Any]]
    seed: int = 0
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.axes, dict) or not self.axes:
            raise ValueError("a sweep needs at least one axis")
        for name, values in self.axes.items():
            if not isinstance(name, str) or not name:
                raise ValueError(f"axis name {name!r} must be a string")
            try:
                n = len(values)
            except TypeError:
                raise ValueError(
                    f"axis {name!r} values must be a sequence"
                ) from None
            if n == 0:
                raise ValueError(f"axis {name!r} has no values")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")

    @property
    def n_points(self) -> int:
        """Number of grid points."""
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def units(self) -> list[UnitContext]:
        """The sweep's work units, in grid order."""
        names = list(self.axes)
        return [
            UnitContext(
                index=index,
                parameters=dict(zip(names, combo)),
                root_seed=self.seed,
            )
            for index, combo in enumerate(
                itertools.product(*(self.axes[n] for n in names))
            )
        ]


@dataclass(frozen=True)
class SweepResult:
    """Results plus execution metadata for one engine run.

    ``points`` is always in unit (grid) order — never in completion
    order — which is half of the determinism contract; the other half is
    the per-unit seeding described in the module docstring.
    """

    points: tuple[SweepPoint, ...]
    seed: int
    n_workers: int
    chunk_size: int
    executor: str
    wall_s: float
    worker_timings: tuple[WorkerTiming, ...]
    #: Merged worker telemetry (metric snapshots + span trees) when
    #: the run was launched with a :class:`repro.obs.TelemetrySpec`;
    #: ``None`` otherwise.  Merging happens in chunk-index order, so two
    #: runs with the same units and ``chunk_size`` — serial or parallel,
    #: any worker count, with or without retries — expose identical
    #: aggregated metric values.
    telemetry: TelemetryAggregate | None = None
    #: Fault-tolerance decisions the scheduler made, in the order it
    #: made them — completion order within a pool round (empty for a
    #: clean run).
    retries: tuple[RetryEvent, ...] = ()
    #: Chunks restored from a checkpoint instead of being re-run.
    resumed_chunks: int = 0

    @property
    def values(self) -> list[Any]:
        """The work functions' return values, in unit order."""
        return [point.value for point in self.points]

    @property
    def busy_s(self) -> float:
        """Total time spent inside work functions, across all workers."""
        return sum(t.busy_s for t in self.worker_timings)

    def retry_summary(self) -> dict[str, int]:
        """Retry event counts by ``reason`` (empty for a clean run)."""
        summary: dict[str, int] = {}
        for event in self.retries:
            summary[event.reason] = summary.get(event.reason, 0) + 1
        return summary

    def table(self, title: str, value_label: str = "value") -> Table:
        """Render the sweep as a text table.

        Dict-valued results get one column per key (all values must then
        share the same keys); any other value type gets a single column.
        """
        axis_names: list[str] = []
        for point in self.points:
            for name in point.parameters:
                if name not in axis_names:
                    axis_names.append(name)
        first = self.points[0].value if self.points else None
        if isinstance(first, dict):
            value_names = [
                k for k in first if k not in axis_names
            ]
            table = Table(title, axis_names + value_names)
            for point in self.points:
                table.add_row(
                    [point.parameters.get(n, "") for n in axis_names]
                    + [point.value[k] for k in value_names]
                )
        else:
            table = Table(title, axis_names + [value_label])
            for point in self.points:
                table.add_row(
                    [point.parameters.get(n, "") for n in axis_names]
                    + [point.value]
                )
        return table


@dataclass(frozen=True)
class _UnitFailure:
    index: int
    parameters: dict[str, Any]
    cause: str
    remote_traceback: str
    reason: str = "unit-error"


@dataclass(frozen=True)
class _ChunkOutcome:
    first_index: int
    values: list[Any]
    failure: _UnitFailure | None
    worker: int
    busy_s: float
    telemetry: dict[str, Any] | None = None


@contextmanager
def _chunk_deadline(timeout_s: float | None) -> Iterator[None]:
    """Arm a ``SIGALRM``-based deadline around a chunk's unit loop.

    Enforced *inside* the executing process (worker or serial
    coordinator), so a hung chunk surfaces as an ordinary
    :class:`_ChunkTimeout` failure through the normal result channel —
    no executor-level future babysitting, and the same mechanism covers
    both executors.  Silently unavailable off the POSIX main thread.
    """
    usable = (
        timeout_s is not None
        and timeout_s > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise _ChunkTimeout(
            f"chunk exceeded its {timeout_s:g}s deadline"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_chunk(
    fn: Callable[[UnitContext], Any],
    units: list[UnitContext],
    telemetry_spec: TelemetrySpec | None = None,
    timeout_s: float | None = None,
) -> _ChunkOutcome:
    """Execute one chunk of units; never raises (failures are data).

    Returning failures instead of raising keeps tracebacks readable
    across the process boundary and lets the coordinator attribute the
    error to a specific unit.  A pooled chunk's outcome returns through
    the executor's own result pickle.

    When a :class:`TelemetrySpec` is given, a fresh per-chunk
    :class:`repro.obs.Telemetry` is activated around the unit loop
    (work functions pick it up via
    :func:`repro.obs.runtime.attach_active`) and its snapshot rides
    back on the outcome — this is the cross-process telemetry channel.
    The chunk then runs as a ``runner.chunk`` span holding one
    ``runner.unit`` span per unit, under which the work functions'
    own spans nest.  A spec of ``None`` leaves any caller-activated
    live telemetry in place (the serial tracing flow).  ``timeout_s``
    arms the in-process chunk deadline.
    """
    start = time.perf_counter()
    values: list[Any] = []
    failure = None
    telemetry = None if telemetry_spec is None else telemetry_spec.build()

    def run() -> None:
        nonlocal failure
        for ctx in units:
            try:
                if telemetry is None:
                    values.append(fn(ctx))
                else:
                    with telemetry.spans.span("runner.unit"):
                        values.append(fn(ctx))
            except _ChunkTimeout as exc:
                failure = _UnitFailure(
                    index=ctx.index,
                    parameters=ctx.parameters,
                    cause=f"{type(exc).__name__}: {exc}",
                    remote_traceback=traceback.format_exc(),
                    reason="timeout",
                )
                break
            except Exception as exc:  # noqa: BLE001 - crossing processes
                failure = _UnitFailure(
                    index=ctx.index,
                    parameters=ctx.parameters,
                    cause=f"{type(exc).__name__}: {exc}",
                    remote_traceback=traceback.format_exc(),
                )
                break

    def run_with_deadline() -> None:
        nonlocal failure
        try:
            with _chunk_deadline(timeout_s):
                run()
        except _ChunkTimeout as exc:
            # The alarm fired outside the unit loop's try (bookkeeping
            # between units); attribute it to the chunk's first unit.
            if failure is None:
                failure = _UnitFailure(
                    index=units[0].index,
                    parameters=units[0].parameters,
                    cause=f"{type(exc).__name__}: {exc}",
                    remote_traceback=traceback.format_exc(),
                    reason="timeout",
                )

    snapshot = None
    if telemetry is None:
        run_with_deadline()
    else:
        with _activate_telemetry(telemetry):
            with telemetry.spans.span("runner.chunk"):
                run_with_deadline()
        snapshot = telemetry.chunk_snapshot()
    return _ChunkOutcome(
        first_index=units[0].index,
        values=values,
        failure=failure,
        worker=os.getpid(),
        busy_s=time.perf_counter() - start,
        telemetry=snapshot,
    )


def _chunked(
    units: list[UnitContext], chunk_size: int
) -> list[list[UnitContext]]:
    return [
        units[i : i + chunk_size]
        for i in range(0, len(units), chunk_size)
    ]


def _auto_chunk_size(n_units: int, n_workers: int) -> int:
    """A few tasks per worker: parallel slack without per-unit IPC."""
    if n_units == 0:
        return 1
    return max(1, -(-n_units // max(1, 4 * n_workers)))


def _executor_for(n_workers: int) -> str:
    """The executor a run of ``n_workers`` starts on.

    Serial for one worker, and on platforms without a fork-style start
    method (spawn would need importable work functions); the process
    pool otherwise.
    """
    methods = multiprocessing.get_all_start_methods()
    if n_workers == 1 or (
        "fork" not in methods and "forkserver" not in methods
    ):
        return "serial"
    return "process"


class _ChunkScheduler:
    """Runs chunks under a retry policy; the fault-tolerance core.

    Process-executor rounds: all unresolved chunks are submitted to a
    fresh pool and each one settles as soon as it finishes — a good
    outcome is kept (spilled and reported at once), a failed chunk
    queues for the next round (with backoff).  Executor-level failures
    — a worker killed mid-chunk, an unpicklable work function — count
    against the circuit breaker, which falls back to the always-correct
    serial executor when it trips.  Chunk failures (unit errors,
    timeouts) count against the per-chunk ``max_attempts`` budget
    instead; exhausting it makes the failure terminal.  Without a
    :class:`RetryPolicy` the scheduler reproduces the engine's
    historical strict behaviour: one attempt per chunk and an immediate
    :class:`SweepError` on executor failure.
    """

    def __init__(
        self,
        fn: Callable[[UnitContext], Any],
        chunks: list[list[UnitContext]],
        executor_kind: str,
        n_workers: int,
        telemetry_spec: TelemetrySpec | None,
        retry: RetryPolicy | None,
        seed: int,
        on_complete: Callable[[int, _ChunkOutcome], None],
        on_stopped: Callable[[int, _ChunkOutcome], None],
    ) -> None:
        self.fn = fn
        self.chunks = chunks
        self.executor_kind = executor_kind
        self.n_workers = n_workers
        self.telemetry_spec = telemetry_spec
        self.tolerant = retry is not None
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=1, breaker_failures=1, jitter=0.0
        )
        self.seed = seed
        self.on_complete = on_complete
        self.on_stopped = on_stopped
        self.outcomes: dict[int, _ChunkOutcome] = {}
        self.attempts: dict[int, int] = {}
        self.terminal: dict[int, _UnitFailure] = {}
        self.events: list[RetryEvent] = []
        self.pool_breaks = 0

    # -- event plumbing -------------------------------------------------

    def _emit(
        self, chunk_index: int, attempt: int, reason: str, action: str
    ) -> None:
        first_unit = (
            self.chunks[chunk_index][0].index if chunk_index >= 0 else -1
        )
        event = RetryEvent(
            chunk_index=chunk_index,
            first_unit=first_unit,
            attempt=attempt,
            reason=reason,
            action=action,
        )
        self.events.append(event)
        live = _active_telemetry()
        if live is not None:
            live.on_chunk_retry(event)

    def _settle(self, chunk_index: int, outcome: _ChunkOutcome) -> bool:
        """Accept or charge one executed chunk; True when resolved."""
        failure = outcome.failure
        if failure is None:
            self.outcomes[chunk_index] = outcome
            self.on_complete(chunk_index, outcome)
            return True
        failed_attempt = self.attempts.get(chunk_index, 0)
        self.attempts[chunk_index] = failed_attempt + 1
        if self.attempts[chunk_index] >= self.retry.max_attempts:
            self.terminal[chunk_index] = failure
            self._emit(chunk_index, failed_attempt, failure.reason, "failed")
            return True
        self._emit(chunk_index, failed_attempt, failure.reason, "retry")
        return False

    def _backoff(self, chunk_ids: list[int]) -> None:
        delay = max(
            (
                self.retry.backoff_delay(
                    max(self.attempts.get(i, 0), 1),
                    seed=self.seed,
                    chunk_index=i,
                )
                for i in chunk_ids
            ),
            default=0.0,
        )
        if delay > 0:
            time.sleep(delay)

    # -- executors ------------------------------------------------------

    def _run_serial(self, pending: list[int]) -> None:
        for i in pending:
            while i not in self.outcomes and i not in self.terminal:
                outcome = _run_chunk(
                    self.fn,
                    self.chunks[i],
                    self.telemetry_spec,
                    self.retry.timeout_s,
                )
                if not self._settle(i, outcome):
                    self._backoff([i])

    def _run_process_round(self, pending: list[int]) -> list[int]:
        """One pool round; returns the chunks still unresolved.

        If settling a chunk raises (an ``on_chunk`` observer stopping
        the run), every chunk not yet started is cancelled, and the
        exception propagates once the pool has finished the chunks it
        had started: each of those that succeeds goes to
        ``on_stopped`` (spilled, not reported), so a resumed run keeps
        it.
        """
        methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in methods else methods[0]
        context = multiprocessing.get_context(method)
        unresolved: list[int] = []
        broken = False
        # Under fork the executor starts every worker up front, so size
        # the pool to the round: a retry of one chunk forks one process.
        # Workers take SIGTERM's default action whatever handler the
        # coordinator installed (``repro serve`` routes it to
        # KeyboardInterrupt): a broken pool ends its survivors with
        # SIGTERM, and a worker that caught it would keep pulling chunks.
        with ProcessPoolExecutor(
            max_workers=min(self.n_workers, len(pending)),
            mp_context=context,
            initializer=signal.signal,
            initargs=(signal.SIGTERM, signal.SIG_DFL),
        ) as pool:
            futures = {
                pool.submit(
                    _run_chunk,
                    self.fn,
                    self.chunks[i],
                    self.telemetry_spec,
                    self.retry.timeout_s,
                ): i
                for i in pending
            }
            waiting = set(futures)
            try:
                while waiting:
                    done, waiting = wait(
                        waiting, return_when=FIRST_COMPLETED
                    )
                    for future in sorted(done, key=futures.__getitem__):
                        i = futures[future]
                        try:
                            outcome = future.result()
                        except Exception as exc:  # pool break / unpicklable fn
                            if not self.tolerant:
                                raise SweepError(
                                    f"executor failed before the work "
                                    f"function could report: "
                                    f"{type(exc).__name__}: {exc} "
                                    f"(unpicklable work function or "
                                    f"crashed worker process?)"
                                ) from exc
                            # The executor ate this chunk (its worker
                            # died, or the pool broke before it ran).
                            # That is an executor failure, not the
                            # chunk's: it does not spend the chunk's
                            # retry budget, only the circuit breaker's.
                            broken = True
                            self._emit(
                                i, self.attempts.get(i, 0), "executor",
                                "retry",
                            )
                            unresolved.append(i)
                            continue
                        if not self._settle(i, outcome):
                            unresolved.append(i)
            except BaseException:
                for future in futures:
                    future.cancel()
                for future in sorted(futures, key=futures.__getitem__):
                    i = futures[future]
                    if future.cancelled() or i in self.outcomes:
                        continue
                    try:
                        outcome = future.result()
                    except Exception:  # noqa: BLE001 - a broken pool
                        continue
                    if outcome.failure is None:
                        self.outcomes[i] = outcome
                        self.on_stopped(i, outcome)
                raise
        if broken:
            self.pool_breaks += 1
        return sorted(unresolved)

    # -- entry point ----------------------------------------------------

    def execute(self) -> str:
        """Run all chunks; returns the executor the run ended on."""
        executor_used = self.executor_kind
        pending = list(range(len(self.chunks)))
        # Chunks resolved from a checkpoint arrive pre-populated.
        pending = [i for i in pending if i not in self.outcomes]
        while pending:
            if executor_used == "serial":
                self._run_serial(pending)
                break
            pending = self._run_process_round(pending)
            pending = [
                i
                for i in pending
                if i not in self.outcomes and i not in self.terminal
            ]
            if not pending:
                break
            if self.pool_breaks >= self.retry.breaker_failures:
                executor_used = "serial"
                self._emit(
                    pending[0], self.pool_breaks, "executor",
                    "serial-fallback",
                )
                continue
            self._backoff(pending)
        return executor_used


def run_units(
    fn: Callable[[UnitContext], Any],
    units: list[UnitContext],
    *,
    seed: int = 0,
    n_workers: int = 1,
    chunk_size: int | None = None,
    telemetry: TelemetrySpec | None = None,
    retry: RetryPolicy | None = None,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = True,
    on_chunk: Callable[[ChunkProgress], None] | None = None,
) -> SweepResult:
    """Execute arbitrary work units; the primitive under :func:`run_sweep`.

    Pooled workers return each chunk's values and telemetry snapshot
    through the executor's own result pickle.  The coordinator settles
    every chunk as it finishes — spill, ``on_chunk`` report, retry
    decision — and merges the results in chunk order at the end.

    Args:
        fn: work function, called once per unit with its
            :class:`UnitContext`.  Must be picklable (a module-level
            function or :func:`functools.partial` of one) to run on the
            process executor.
        units: the units to execute; results come back in this order.
        seed: recorded in the result (the units already carry theirs);
            also keys backoff jitter and the checkpoint fingerprint.
        n_workers: worker processes, and the executor choice: 1 runs
            in-process serial, more run a process pool (serial on
            platforms without a fork-style start method).
        chunk_size: units per task; ``None`` auto-sizes.  Telemetry
            callers comparing serial vs. parallel aggregates should pin
            this: the auto size depends on ``n_workers``, and chunking
            decides how worker registries partition before the merge.
            Checkpoint users resuming under a different worker count
            must pin it too (the fingerprint refuses a resize).
        telemetry: optional :class:`repro.obs.TelemetrySpec`; each chunk
            then runs with a fresh activated telemetry whose snapshot is
            shipped back and merged (in chunk order) into
            ``result.telemetry``.  Work functions opt in by calling
            :func:`repro.obs.runtime.attach_active` on the systems they
            build — the bundled :mod:`repro.runner.workers` functions
            and :func:`repro.runner.run_sessions` already do.
        retry: optional :class:`repro.runner.faults.RetryPolicy`
            enabling chunk retries, the in-worker chunk deadline, and
            the circuit-breaker serial fallback.  ``None`` preserves the
            strict historical behaviour (one attempt, executor failures
            raise immediately).
        checkpoint: optional JSONL path; every completed chunk spills
            here as it finishes (values + telemetry snapshot, digested
            by the coordinator), and a restart with
            ``resume=True`` skips the chunks the file already holds.
        resume: when a checkpoint file exists, load it (default) rather
            than truncating and starting over.  A checkpoint written
            for a different ``(seed, n_units, chunk_size)`` raises
            :class:`SweepError` instead of silently mixing runs.
        on_chunk: optional observer called on the coordinator thread
            with one :class:`ChunkProgress` per resolved chunk (resumed
            chunks first, then executed chunks in completion order).
            Raising from the observer aborts the run at that chunk:
            chunks not yet started are cancelled, running ones finish
            and are spilled to the checkpoint without a report, and the
            exception propagates — the cooperative cancellation point
            for callers driving the engine from an event loop.

    Returns:
        A :class:`SweepResult`; ``values`` are in unit order and
        bit-identical whether or not chunks were retried, resumed from
        a checkpoint, or finished on the circuit breaker's serial
        fallback.

    Raises:
        WorkUnitError: a work function raised (or kept failing past the
            retry budget); the earliest failing unit is reported.
        SweepError: the executor itself failed (e.g. unpicklable fn)
            with no retry policy, or the checkpoint refused to resume.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    executor_kind = _executor_for(n_workers)
    if chunk_size is None:
        chunk_size = _auto_chunk_size(len(units), n_workers)
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")

    start = time.perf_counter()
    chunks = _chunked(units, chunk_size)

    checkpoint_writer: CheckpointWriter | None = None
    resumed: dict[int, _ChunkOutcome] = {}
    if checkpoint is not None:
        checkpoint = os.fspath(checkpoint)
        fingerprint = checkpoint_fingerprint(
            seed, len(units), chunk_size
        )
        exists = (
            os.path.exists(checkpoint)
            and os.path.getsize(checkpoint) > 0
        )
        if exists and resume:
            try:
                state = load_checkpoint(checkpoint)
            except CheckpointError as error:
                raise SweepError(str(error)) from error
            if state.fingerprint() != fingerprint:
                raise SweepError(
                    f"checkpoint {checkpoint} was written for a "
                    f"different run (seed/units/chunking changed); "
                    f"refusing to resume from it"
                )
            for chunk_index, done in state.chunks.items():
                if chunk_index >= len(chunks):
                    continue
                expected = chunks[chunk_index]
                if (
                    done.first_index != expected[0].index
                    or done.n_units != len(expected)
                ):
                    continue
                resumed[chunk_index] = _ChunkOutcome(
                    first_index=done.first_index,
                    values=done.values,
                    failure=None,
                    worker=done.worker,
                    busy_s=done.busy_s,
                    telemetry=done.telemetry,
                )
        elif exists and not resume:
            os.remove(checkpoint)
        checkpoint_writer = CheckpointWriter(
            checkpoint,
            {
                "seed": seed,
                "n_units": len(units),
                "chunk_size": chunk_size,
                "fingerprint": fingerprint,
            },
        )

    n_chunks = len(chunks)
    chunks_done = 0

    def report(
        chunk_index: int, outcome: _ChunkOutcome, was_resumed: bool
    ) -> None:
        nonlocal chunks_done
        chunks_done += 1
        if on_chunk is not None:
            on_chunk(
                ChunkProgress(
                    chunk_index=chunk_index,
                    n_chunks=n_chunks,
                    chunks_done=chunks_done,
                    first_index=outcome.first_index,
                    n_units=len(outcome.values),
                    worker=outcome.worker,
                    busy_s=outcome.busy_s,
                    resumed=was_resumed,
                )
            )

    def spill(chunk_index: int, outcome: _ChunkOutcome) -> None:
        if checkpoint_writer is not None:
            checkpoint_writer.record_chunk(
                CompletedChunk(
                    chunk_index=chunk_index,
                    first_index=outcome.first_index,
                    n_units=len(outcome.values),
                    worker=outcome.worker,
                    busy_s=outcome.busy_s,
                    values=outcome.values,
                    telemetry=outcome.telemetry,
                )
            )

    def spill_and_report(chunk_index: int, outcome: _ChunkOutcome) -> None:
        spill(chunk_index, outcome)
        report(chunk_index, outcome, False)

    scheduler = _ChunkScheduler(
        fn,
        chunks,
        executor_kind,
        n_workers,
        telemetry,
        retry,
        seed,
        on_complete=spill_and_report,
        on_stopped=spill,
    )
    scheduler.outcomes.update(resumed)
    try:
        for chunk_index in sorted(resumed):
            report(chunk_index, resumed[chunk_index], True)
        executor_used = scheduler.execute()
    finally:
        if checkpoint_writer is not None:
            checkpoint_writer.close()
    wall_s = time.perf_counter() - start

    events = tuple(scheduler.events)
    if scheduler.terminal:
        chunk_index, first = min(
            scheduler.terminal.items(), key=lambda item: item[1].index
        )
        raise WorkUnitError(
            first.index,
            first.parameters,
            first.cause,
            first.remote_traceback,
            attempts=scheduler.attempts.get(chunk_index, 1),
            chunk_index=chunk_index,
            retries=events,
        )

    outcomes = [
        scheduler.outcomes[i] for i in sorted(scheduler.outcomes)
    ]
    values: dict[int, Any] = {}
    for outcome in outcomes:
        for offset, value in enumerate(outcome.values):
            values[outcome.first_index + offset] = value
    points = tuple(
        SweepPoint(
            parameters=ctx.parameters,
            value=values[ctx.index],
            seed=ctx.seed,
        )
        for ctx in units
    )

    by_worker: dict[int, list[_ChunkOutcome]] = {}
    for outcome in outcomes:
        by_worker.setdefault(outcome.worker, []).append(outcome)
    timings = tuple(
        WorkerTiming(
            worker=worker,
            n_chunks=len(worker_outcomes),
            n_units=sum(len(o.values) for o in worker_outcomes),
            busy_s=sum(o.busy_s for o in worker_outcomes),
        )
        for worker, worker_outcomes in sorted(by_worker.items())
    )
    aggregate = None
    if telemetry is not None:
        aggregate = TelemetryAggregate.from_chunks(
            outcome.telemetry
            for outcome in sorted(outcomes, key=lambda o: o.first_index)
            if outcome.telemetry is not None
        )
        if events:
            aggregate.record_retries(events)
    return SweepResult(
        points=points,
        seed=seed,
        n_workers=n_workers,
        chunk_size=chunk_size,
        executor=executor_used,
        wall_s=wall_s,
        worker_timings=timings,
        telemetry=aggregate,
        retries=events,
        resumed_chunks=len(resumed),
    )


def run_sweep(
    measure: Callable[[UnitContext], Any],
    spec: SweepSpec,
    *,
    n_workers: int = 1,
    telemetry: TelemetrySpec | None = None,
    retry: RetryPolicy | None = None,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = True,
    on_chunk: Callable[[ChunkProgress], None] | None = None,
) -> SweepResult:
    """Evaluate ``measure`` at every grid point of ``spec``.

    ``measure`` receives one :class:`UnitContext` per point and must
    take all randomness from it (``ctx.rng(...)`` / ``ctx.seed``); under
    that discipline the result is bit-identical for any ``n_workers``
    and ``spec.chunk_size`` — and, with ``retry`` / ``checkpoint``,
    identical again under retries, serial fallback, and checkpoint
    resume (see ``docs/fault_tolerance.md``).  The other keywords are
    :func:`run_units`'s.
    """
    return run_units(
        measure,
        spec.units(),
        seed=spec.seed,
        n_workers=n_workers,
        chunk_size=spec.chunk_size,
        telemetry=telemetry,
        retry=retry,
        checkpoint=checkpoint,
        resume=resume,
        on_chunk=on_chunk,
    )
