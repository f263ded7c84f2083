"""Job store, priority queue, and executor pool for the sweep service.

The service's concurrency model keeps the deterministic engine
untouched: the asyncio side owns *scheduling state* (the job table,
the priority queue, SSE subscribers), while each running job executes
the synchronous engine on a worker thread (one per executor slot).
The only traffic between the two worlds is the engine's
:class:`~repro.runner.engine.ChunkProgress` reports, which the worker
thread forwards onto the event loop with
``asyncio.run_coroutine_threadsafe`` — awaiting each forward keeps
event order identical to chunk-resolution order and gives the loop
natural backpressure.

Durability mirrors the engine's checkpoint layer: every job persists
its request (``<id>.job.json``), its chunk spill (``<id>.ckpt.jsonl``,
written by the engine itself), and on completion its result payload
(``<id>.result.json``) into the spill directory.  A server killed
mid-job restarts, reloads the job table, re-enqueues every
non-terminal job with ``resume=True``, and the engine skips the chunks
the checkpoint already holds — the resumed result is bit-identical to
an uninterrupted run (see ``docs/service.md``).

Cancellation is cooperative and chunk-granular: a cancel request on a
running job raises :class:`JobCancelled` from the engine's ``on_chunk``
observer at the next chunk boundary, so finished chunks stay spilled
and a resubmitted job resumes rather than recomputes.  Stopping the
pool (SIGTERM) ends a running job the same way, at its next chunk
boundary, but leaves it ``running`` on disk, so a restart on the same
spill directory resumes it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import heapq
import json
import os
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Callable

from ..obs.serve import ServerMetrics
from ..runner import run_sessions, run_sweep
from ..runner.engine import ChunkProgress, SweepResult
from .schema import (
    JOB_SCHEMA,
    WORK_FUNCTIONS,
    JobRequest,
    job_request_from_json,
    job_request_to_json,
    result_to_json,
)

__all__ = [
    "TERMINAL_STATES",
    "ExecutorPool",
    "Job",
    "JobCancelled",
    "JobEvent",
    "JobNotFound",
    "JobQueue",
    "JobStateError",
    "JobStore",
    "JobStoreFull",
    "execute_request",
]

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL_STATES = frozenset({COMPLETED, FAILED, CANCELLED})

#: Legal state-machine edges; anything else is a :class:`JobStateError`.
_TRANSITIONS = frozenset(
    {
        (QUEUED, RUNNING),
        (QUEUED, CANCELLED),
        (RUNNING, COMPLETED),
        (RUNNING, FAILED),
        (RUNNING, CANCELLED),
    }
)


class JobNotFound(KeyError):
    """No job with that id."""


class JobStateError(RuntimeError):
    """An operation is illegal for the job's current state."""


class JobStoreFull(RuntimeError):
    """The store is at its ``max_jobs`` capacity."""


class JobCancelled(RuntimeError):
    """Raised inside the engine's observer to stop a cancelled job."""


class _PoolStopping(RuntimeError):
    """Raised inside the engine's observer while the pool shuts down."""


@dataclass(frozen=True)
class JobEvent:
    """One SSE-able event in a job's history.

    ``id`` increases monotonically per job (1-based) and doubles as the
    SSE ``id:`` field, so clients reconnecting with ``Last-Event-ID``
    replay exactly what they missed.
    """

    id: int
    event: str
    data: dict[str, Any]


@dataclass
class Job:
    """One job's full server-side state."""

    id: str
    request: JobRequest
    seq: int
    priority: int
    state: str = QUEUED
    chunks_done: int = 0
    n_chunks: int | None = None
    resumed_chunks: int = 0
    error: str | None = None
    result: dict[str, Any] | None = None
    cancel_requested: bool = False
    recovered: bool = False
    events: list[JobEvent] = field(default_factory=list)

    def summary(self) -> dict[str, Any]:
        """The status payload ``GET /jobs/{id}`` serves."""
        return {
            "id": self.id,
            "kind": self.request.kind,
            "state": self.state,
            "priority": self.priority,
            "chunks_done": self.chunks_done,
            "n_chunks": self.n_chunks,
            "resumed_chunks": self.resumed_chunks,
            "error": self.error,
            "recovered": self.recovered,
        }


def execute_request(
    request: JobRequest,
    *,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = True,
    on_chunk: Callable[[ChunkProgress], None] | None = None,
) -> SweepResult:
    """Run one validated job request through the engine (synchronous).

    The single point where an HTTP job spec becomes an engine call —
    the executor pool runs exactly this on a worker thread, and tests
    call it directly to assert a served job's values are bit-identical
    to a direct engine run of the same spec.
    """
    if request.kind == "sweep":
        fn: Callable = WORK_FUNCTIONS[request.fn]
        if request.fn_kwargs:
            fn = functools.partial(fn, **request.fn_kwargs)
        return run_sweep(
            fn,
            request.sweep,
            n_workers=request.n_workers,
            retry=request.retry,
            checkpoint=checkpoint,
            resume=resume,
            on_chunk=on_chunk,
        )
    return run_sessions(
        request.sessions,
        request.n_sessions,
        queries=request.queries,
        duration_s=request.duration_s,
        seed=request.seed,
        n_workers=request.n_workers,
        chunk_size=request.chunk_size,
        retry=request.retry,
        checkpoint=checkpoint,
        resume=resume,
        on_chunk=on_chunk,
    )


class JobQueue:
    """Priority-then-FIFO job queue for the executor pool.

    Higher :attr:`Job.priority` dequeues first; within one priority,
    submission order (the store's monotonic ``seq``) decides — that is
    the fairness contract the queue tests pin down.  Cancelled jobs are
    lazily removed: :meth:`remove` marks the id and :meth:`get` skips
    it, avoiding an O(n) heap rebuild on every cancel.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, str]] = []
        self._removed: set[str] = set()
        self._cond = asyncio.Condition()

    async def put(self, job: Job) -> None:
        async with self._cond:
            self._removed.discard(job.id)
            heapq.heappush(self._heap, (-job.priority, job.seq, job.id))
            self._cond.notify_all()

    async def get(self) -> str:
        """Next job id, waiting until one is available."""
        async with self._cond:
            while True:
                while self._heap and self._heap[0][2] in self._removed:
                    _, _, skipped = heapq.heappop(self._heap)
                    self._removed.discard(skipped)
                if self._heap:
                    return heapq.heappop(self._heap)[2]
                await self._cond.wait()

    async def remove(self, job_id: str) -> None:
        async with self._cond:
            if any(entry[2] == job_id for entry in self._heap):
                self._removed.add(job_id)

    @property
    def depth(self) -> int:
        """Jobs currently queued (pending lazy removals excluded)."""
        return sum(
            1 for entry in self._heap if entry[2] not in self._removed
        )


class JobStore:
    """Async job table: lifecycle, events, persistence.

    All mutation happens on the event loop under one
    ``asyncio.Condition``; worker threads reach the store only through
    ``run_coroutine_threadsafe``.  Every state change (with a spill
    directory) first rewrites the job's sidecar file atomically, then
    updates memory and appends a ``state`` event, so the on-disk table
    is always a valid snapshot for a restarted server to
    :meth:`load_jobs` from.  A sidecar that cannot be written fails
    the job in memory and leaves the file at its last state.
    """

    def __init__(
        self,
        spill_dir: str | os.PathLike | None = None,
        *,
        metrics: ServerMetrics | None = None,
        max_jobs: int = 1024,
    ) -> None:
        if max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")
        self.spill_dir = os.fspath(spill_dir) if spill_dir else None
        self.metrics = metrics
        self.max_jobs = max_jobs
        self.jobs: dict[str, Job] = {}
        #: Order jobs entered the RUNNING state (fairness assertions).
        self.dispatch_log: list[str] = []
        self._seq = 0
        self._cond = asyncio.Condition()
        if self.spill_dir is not None:
            os.makedirs(self.spill_dir, exist_ok=True)

    # -- paths / persistence --------------------------------------------

    def checkpoint_path(self, job_id: str) -> str | None:
        """The engine checkpoint file for a job (None when ephemeral)."""
        if self.spill_dir is None:
            return None
        return os.path.join(self.spill_dir, f"{job_id}.ckpt.jsonl")

    def _job_path(self, job_id: str) -> str:
        return os.path.join(self.spill_dir, f"{job_id}.job.json")

    def _result_path(self, job_id: str) -> str:
        return os.path.join(self.spill_dir, f"{job_id}.result.json")

    def _write_json(self, path: str, payload: dict[str, Any]) -> None:
        """Replace ``path`` atomically; a failed write leaves no ``.tmp``."""
        tmp = f"{path}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
                handle.write("\n")
            os.replace(tmp, path)
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise

    def _persist(self, job: Job) -> None:
        """Write the job's sidecar, after its result payload if any."""
        if self.spill_dir is None:
            return
        from .. import __version__

        if job.result is not None:
            self._write_json(self._result_path(job.id), job.result)
        self._write_json(
            self._job_path(job.id),
            {
                "schema": JOB_SCHEMA,
                "version": __version__,
                "id": job.id,
                "seq": job.seq,
                "priority": job.priority,
                "state": job.state,
                "error": job.error,
                "chunks_done": job.chunks_done,
                "n_chunks": job.n_chunks,
                "resumed_chunks": job.resumed_chunks,
                "request": job_request_to_json(job.request),
            },
        )

    def _enter(
        self, job: Job, state: str, error: str | None = None, **fields: Any
    ) -> None:
        """Move ``job`` to ``state``: write its sidecar, then memory.

        A sidecar that cannot be written (a full spill directory) fails
        the job instead: it ends ``failed`` in memory with the
        ``OSError``'s text, and the file keeps the last state written,
        which is what a restarted server reloads.  Callers hold the lock.
        """
        try:
            self._persist(
                dataclasses.replace(job, state=state, error=error, **fields)
            )
        except OSError as exc:
            if state != FAILED:
                error = f"{type(exc).__name__}: {exc}"
            state, fields = FAILED, {}
        job.state = state
        job.error = error
        for name, value in fields.items():
            setattr(job, name, value)
        if state == RUNNING:
            self.dispatch_log.append(job.id)
        self._append_event(job, "state", {"state": state, "error": error})
        self._publish_census()
        self._cond.notify_all()

    def load_jobs(self) -> list[Job]:
        """Reload persisted jobs; returns the ones needing a re-enqueue.

        Called once before the executor pool starts (no lock needed).
        Terminal jobs reload as-is (completed ones with their result
        payload); queued/running jobs — including jobs a killed server
        never finished — reset to ``queued`` with ``recovered=True``
        and are returned for the service to re-enqueue, where the
        engine's checkpoint resume picks up their finished chunks.
        Unreadable sidecar files are skipped, mirroring the checkpoint
        loader's torn-line tolerance.
        """
        if self.spill_dir is None:
            return []
        pending: list[Job] = []
        names = sorted(
            n for n in os.listdir(self.spill_dir)
            if n.endswith(".job.json")
        )
        for name in names:
            path = os.path.join(self.spill_dir, name)
            try:
                with open(path, encoding="utf-8") as handle:
                    payload = json.load(handle)
                if payload.get("schema") != JOB_SCHEMA:
                    continue
                request = job_request_from_json(payload["request"])
                job = Job(
                    id=str(payload["id"]),
                    request=request,
                    seq=int(payload["seq"]),
                    priority=int(payload["priority"]),
                    state=str(payload["state"]),
                    error=payload.get("error"),
                )
                job.chunks_done = int(payload.get("chunks_done") or 0)
                raw_n_chunks = payload.get("n_chunks")
                if raw_n_chunks is not None:
                    job.n_chunks = int(raw_n_chunks)
                job.resumed_chunks = int(payload.get("resumed_chunks") or 0)
            except (OSError, ValueError, KeyError, TypeError):
                continue
            if job.state == COMPLETED:
                try:
                    with open(
                        self._result_path(job.id), encoding="utf-8"
                    ) as handle:
                        job.result = json.load(handle)
                except (OSError, ValueError):
                    # Completed but its result payload is gone:
                    # recompute (the checkpoint makes that a resume).
                    job.state = QUEUED
            if job.state not in TERMINAL_STATES:
                job.state = QUEUED
                job.recovered = True
                # record_chunk rebuilds the counters on resume (spilled
                # chunks replay through on_chunk with resumed=True), so
                # a stale snapshot here would double-count.
                job.chunks_done = 0
                job.resumed_chunks = 0
                pending.append(job)
            self.jobs[job.id] = job
            self._seq = max(self._seq, job.seq)
            self._append_event(
                job,
                "state",
                {"state": job.state, "recovered": job.recovered},
            )
        self._publish_census()
        return pending

    # -- events ----------------------------------------------------------

    def _append_event(
        self, job: Job, event: str, data: dict[str, Any]
    ) -> JobEvent:
        record = JobEvent(
            id=len(job.events) + 1, event=event, data=dict(data)
        )
        job.events.append(record)
        return record

    def _publish_census(self) -> None:
        if self.metrics is not None:
            self.metrics.set_job_states(self.census())

    def census(self) -> dict[str, int]:
        """Jobs by state (the ``serve_jobs`` gauge's source)."""
        counts: dict[str, int] = {}
        for job in self.jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    # -- lifecycle --------------------------------------------------------

    async def submit(self, request: JobRequest) -> Job:
        async with self._cond:
            active = sum(
                1
                for job in self.jobs.values()
                if job.state not in TERMINAL_STATES
            )
            if active >= self.max_jobs:
                raise JobStoreFull(
                    f"store already holds {active} active job(s) "
                    f"(max_jobs={self.max_jobs})"
                )
            seq = self._seq + 1
            job = Job(
                id=f"job-{seq:06d}",
                request=request,
                seq=seq,
                priority=request.priority,
            )
            # A submit whose sidecar cannot be written raises here,
            # before the job enters the table.
            self._persist(job)
            self._seq = seq
            self.jobs[job.id] = job
            self._append_event(
                job, "state", {"state": QUEUED, "recovered": False}
            )
            if self.metrics is not None:
                self.metrics.job_submitted(request.kind)
            self._publish_census()
            self._cond.notify_all()
            return job

    def _get_locked(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise JobNotFound(job_id)
        return job

    async def get(self, job_id: str) -> Job:
        async with self._cond:
            return self._get_locked(job_id)

    async def list_jobs(self) -> list[Job]:
        async with self._cond:
            return sorted(self.jobs.values(), key=lambda j: j.seq)

    async def advance(
        self, job_id: str, state: str, *, error: str | None = None
    ) -> Job:
        """Move a job along the state machine (illegal edges raise).

        The job ends ``failed`` instead when its sidecar cannot be
        written (see :meth:`_enter`).
        """
        async with self._cond:
            job = self._get_locked(job_id)
            if (job.state, state) not in _TRANSITIONS:
                raise JobStateError(
                    f"job {job_id} cannot go {job.state} -> {state}"
                )
            self._enter(job, state, error)
            return job

    async def cancel(self, job_id: str) -> Job:
        """Request cancellation; idempotent for already-cancelled jobs.

        Queued jobs cancel immediately; running jobs get
        ``cancel_requested`` set and stop at the next chunk boundary
        (their checkpointed chunks survive for a later resume).
        Completed/failed jobs raise :class:`JobStateError`.
        """
        async with self._cond:
            job = self._get_locked(job_id)
            if job.state == CANCELLED:
                return job
            if job.state in TERMINAL_STATES:
                raise JobStateError(
                    f"job {job_id} already {job.state}; nothing to cancel"
                )
            if job.state == QUEUED:
                self._enter(job, CANCELLED)
            else:
                job.cancel_requested = True
                self._append_event(job, "cancelling", {})
                self._cond.notify_all()
            return job

    async def delete(self, job_id: str) -> None:
        """Remove a terminal job and its on-disk sidecars."""
        async with self._cond:
            job = self._get_locked(job_id)
            if job.state not in TERMINAL_STATES:
                raise JobStateError(
                    f"job {job_id} is {job.state}; cancel it before "
                    f"deleting"
                )
            del self.jobs[job_id]
            if self.spill_dir is not None:
                for path in (
                    self._job_path(job_id),
                    self._result_path(job_id),
                    self.checkpoint_path(job_id),
                ):
                    try:
                        os.remove(path)
                    except OSError:
                        pass
            self._publish_census()
            self._cond.notify_all()

    async def record_chunk(
        self, job_id: str, progress: ChunkProgress
    ) -> None:
        """Fold one engine chunk report into job state + an SSE event."""
        async with self._cond:
            job = self._get_locked(job_id)
            job.chunks_done = progress.chunks_done
            job.n_chunks = progress.n_chunks
            if progress.resumed:
                job.resumed_chunks += 1
            if self.metrics is not None:
                self.metrics.chunk_completed(
                    progress.busy_s, progress.resumed
                )
            self._append_event(
                job,
                "chunk",
                {
                    "chunk_index": progress.chunk_index,
                    "n_chunks": progress.n_chunks,
                    "chunks_done": progress.chunks_done,
                    "first_index": progress.first_index,
                    "n_units": progress.n_units,
                    "busy_s": progress.busy_s,
                    "resumed": progress.resumed,
                },
            )
            self._cond.notify_all()

    async def complete(self, job_id: str, result: SweepResult) -> Job:
        """Mark a job completed with its engine result.

        The job ends ``failed`` instead when its result or sidecar
        cannot be written (see :meth:`_enter`).
        """
        async with self._cond:
            job = self._get_locked(job_id)
            if (job.state, COMPLETED) not in _TRANSITIONS:
                raise JobStateError(
                    f"job {job_id} cannot go {job.state} -> completed"
                )
            # Telemetry tail for SSE: the merged span tree's top-level
            # names plus the scheduler's last few fault-tolerance events.
            if result.telemetry is not None:
                spans = result.telemetry.spans()
            else:
                spans = {}
            self._append_event(
                job,
                "metrics",
                {
                    "wall_s": result.wall_s,
                    "busy_s": result.busy_s,
                    "executor": result.executor,
                    "retry_summary": result.retry_summary(),
                    "stage_groups": sorted(spans),
                },
            )
            if result.retries:
                self._append_event(
                    job,
                    "trace",
                    {
                        "retries": [
                            {
                                "chunk_index": e.chunk_index,
                                "first_unit": e.first_unit,
                                "attempt": e.attempt,
                                "reason": e.reason,
                                "action": e.action,
                            }
                            for e in result.retries[-10:]
                        ]
                    },
                )
            self._enter(
                job,
                COMPLETED,
                result=result_to_json(result),
                resumed_chunks=result.resumed_chunks,
            )
            return job

    # -- subscriptions ----------------------------------------------------

    async def events_since(
        self, job_id: str, after_id: int = 0
    ) -> tuple[list[JobEvent], bool]:
        """Events newer than ``after_id`` plus whether the job is done."""
        async with self._cond:
            job = self._get_locked(job_id)
            newer = [e for e in job.events if e.id > after_id]
            return newer, job.state in TERMINAL_STATES

    async def subscribe(
        self, job_id: str, after_id: int = 0
    ) -> AsyncIterator[JobEvent]:
        """Yield a job's events live, starting after ``after_id``.

        Replays history first, then waits for new events; ends once the
        job is terminal and fully replayed (or deleted mid-stream).
        """
        while True:
            async with self._cond:
                job = self.jobs.get(job_id)
                if job is None:
                    return
                newer = [e for e in job.events if e.id > after_id]
                if not newer:
                    if job.state in TERMINAL_STATES:
                        return
                    await self._cond.wait()
                    continue
            for event in newer:
                after_id = event.id
                yield event


class ExecutorPool:
    """N asyncio executor slots draining the job queue.

    Each slot claims the highest-priority queued job and runs it on a
    worker thread via :func:`execute_request`; the engine's per-chunk
    reports come back through the loop in order.  Slots never crash
    the pool: engine failures, and sidecars or checkpoint spills that
    cannot be written, mark the job ``failed`` and the slot moves on.
    :meth:`stop` ends running jobs at their next chunk boundary.
    """

    def __init__(
        self,
        store: JobStore,
        queue: JobQueue,
        *,
        slots: int = 2,
        metrics: ServerMetrics | None = None,
    ) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.store = store
        self.queue = queue
        self.slots = slots
        self.metrics = metrics
        self._tasks: list[asyncio.Task] = []
        self._stopping = False

    async def start(self) -> None:
        self._tasks = [
            asyncio.create_task(self._worker(), name=f"serve-slot-{i}")
            for i in range(self.slots)
        ]

    async def stop(self) -> None:
        # Running jobs see the flag at their next chunk boundary; the
        # loop's shutdown then joins their threads.  Their slot tasks
        # are cancelled here, before the loop can hand them a job
        # thread's stop exception, so a stopped job is never marked
        # failed: it stays ``running`` on disk and resumes on restart.
        self._stopping = True
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []

    def _on_chunk(
        self, loop: asyncio.AbstractEventLoop, job: Job
    ) -> Callable[[ChunkProgress], None]:
        def forward(progress: ChunkProgress) -> None:
            # Worker-thread side of the bridge.  The cancel and stop
            # flags are plain bools written on the loop; reading them
            # here is the cooperative cancellation point (chunk
            # granularity).
            if self._stopping:
                raise _PoolStopping(
                    f"job {job.id} stopped at chunk {progress.chunk_index}"
                )
            if job.cancel_requested:
                raise JobCancelled(
                    f"job {job.id} cancelled at chunk "
                    f"{progress.chunk_index}"
                )
            asyncio.run_coroutine_threadsafe(
                self.store.record_chunk(job.id, progress), loop
            ).result()

        return forward

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        checkpoint = self.store.checkpoint_path(job.id)
        try:
            result = await asyncio.to_thread(
                execute_request,
                job.request,
                checkpoint=checkpoint,
                resume=True,
                on_chunk=self._on_chunk(loop, job),
            )
        except JobCancelled:
            await self.store.advance(job.id, CANCELLED)
        except Exception as error:  # noqa: BLE001 - slot must survive
            await self.store.advance(
                job.id,
                FAILED,
                error=f"{type(error).__name__}: {error}",
            )
        else:
            await self.store.complete(job.id, result)

    async def _worker(self) -> None:
        while True:
            job_id = await self.queue.get()
            if self.metrics is not None:
                self.metrics.set_queue_depth(self.queue.depth)
            try:
                job = await self.store.get(job_id)
            except JobNotFound:
                continue
            if job.state != QUEUED:
                continue  # cancelled (or deleted) while queued
            job = await self.store.advance(job_id, RUNNING)
            if job.state == RUNNING:  # failed if its sidecar was not written
                await self._run_job(job)
