"""Persistent warm worker pool for the parallel engine.

The process executor (:class:`concurrent.futures.ProcessPoolExecutor`)
builds a *fresh* pool per scheduling round, and a fresh pool means
cold workers: every process pays interpreter + import start-up, and —
far more expensive on this codebase — the first chunk it runs pays the
process-global PHY warm-up (the interpolated coded-BER table fill) and
a per-spec session/cache build.  A sweep service dispatching many
small jobs (see :mod:`repro.serve`) repays those costs on every job.

:class:`WarmPool` keeps a fixed set of worker processes alive across
rounds *and across engine runs*.  Workers run a tiny recv/execute/send
loop over a duplex pipe; the chunk body is the engine's own
``_run_chunk_wire``, so in-worker deadlines (``SIGALRM``), fault
injection, telemetry snapshots, and the chunk payload encoding behave
exactly as they do on the one-shot pool.  Determinism is untouched: workers
never share randomness, they only execute the same pure-per-unit
chunks, so results stay bit-identical to the serial and process
executors.

Failure semantics mirror the process executor: a worker that dies
mid-chunk (crash, ``os._exit`` fault, OOM kill) surfaces as an
executor-eaten chunk — the engine's circuit breaker and retry
machinery decide what happens next — and the pool respawns the dead
slot (cold again, warm after its next chunk) so the round can finish.

Use it through the engine::

    with WarmPool(n_workers=4) as pool:
        for job in jobs:
            result = run_units(fn, units, pool=pool, ...)

or let ``run_units(executor="warm")`` manage a pool for one run.
Warm *state* (sessions, channel caches, memoized frames) lives in the
work functions themselves — see
:class:`repro.runner.workers.SessionSpec` with ``warm=True``.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from multiprocessing.connection import wait as _connection_wait
from typing import Any

__all__ = ["WarmPool"]


def _pick_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def _warm_worker_main(conn) -> None:
    """Worker loop: receive ``(key, args)`` jobs until ``None``.

    ``args`` are the positional arguments of
    :func:`repro.runner.engine._run_chunk_wire`; running on the worker
    *main thread* keeps the ``SIGALRM`` chunk deadline armable, exactly
    like a process-pool worker.
    """
    from .engine import _run_chunk_wire

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message is None:
            break
        key, args = message
        outcome = _run_chunk_wire(*args)
        try:
            conn.send((key, outcome))
        except (BrokenPipeError, OSError):  # coordinator went away
            break
    try:
        conn.close()
    except OSError:  # pragma: no cover - already torn down
        pass


class _WorkerHandle:
    """One pool slot: a live process, its pipe, and its in-flight job."""

    def __init__(self, context, slot: int) -> None:
        self.slot = slot
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_warm_worker_main,
            args=(child_conn,),
            name=f"repro-warm-{slot}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.job: Any = None  # key of the in-flight chunk, or None

    def reap(self) -> None:
        """Close the pipe and collect the process (best effort)."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)


class WarmPool:
    """A fixed-size pool of persistent worker processes.

    Args:
        n_workers: worker processes to keep alive.
        context: optional multiprocessing start method ("fork",
            "spawn", "forkserver"); defaults to fork where available,
            matching the process executor.

    The pool is *not* thread-safe: one ``run_round`` at a time.  It is
    reusable across any number of engine runs until :meth:`close`.
    """

    def __init__(self, n_workers: int, *, context: str | None = None) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self._method = context if context is not None else _pick_start_method()
        self._ctx = multiprocessing.get_context(self._method)
        self._closed = False
        self.respawns = 0
        self._workers: list[_WorkerHandle] = [
            _WorkerHandle(self._ctx, slot) for slot in range(n_workers)
        ]

    # -- lifecycle ------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def worker_pids(self) -> list[int]:
        """Current worker pids (changes when a dead slot respawns)."""
        return [w.process.pid for w in self._workers]

    def close(self) -> None:
        """Shut down all workers; idempotent."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            worker.reap()
        self._workers = []

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch -------------------------------------------------------

    def _respawn(self, worker: _WorkerHandle) -> _WorkerHandle:
        worker.reap()
        replacement = _WorkerHandle(self._ctx, worker.slot)
        self._workers[self._workers.index(worker)] = replacement
        self.respawns += 1
        return replacement

    def _dispatch(self, worker: _WorkerHandle, item) -> bool:
        """Send one job; False (job eaten) when the worker is gone."""
        key, args = item
        try:
            worker.conn.send((key, args))
        except (BrokenPipeError, OSError):
            return False
        worker.job = key
        return True

    def run_round(
        self, jobs: dict[Any, tuple]
    ) -> tuple[dict[Any, Any], bool]:
        """Execute one round of chunk jobs across the warm workers.

        ``jobs`` maps an opaque key (the engine uses the chunk index)
        to the positional args of ``_run_chunk_wire``.  Jobs are dealt
        dynamically — each worker gets a new chunk the moment it
        returns one — so stragglers do not idle the pool.

        Returns ``(results, died)``: outcomes keyed like ``jobs``
        (missing keys = eaten by a dead worker), and whether any worker
        died this round.  Dead slots are respawned before returning.
        """
        if self._closed:
            raise RuntimeError("WarmPool is closed")
        queue = deque(jobs.items())  # insertion order = engine's order
        results: dict[Any, Any] = {}
        died = False

        for worker in list(self._workers):
            if not queue:
                break
            item = queue.popleft()
            if not self._dispatch(worker, item):
                died = True
                self._respawn(worker)
        while any(w.job is not None for w in self._workers):
            busy = {
                w.conn: w for w in self._workers if w.job is not None
            }
            ready = _connection_wait(list(busy))
            for conn in ready:
                worker = busy[conn]
                try:
                    key, outcome = conn.recv()
                except (EOFError, OSError):
                    # Worker died mid-chunk: the chunk is executor-eaten
                    # (the engine's retry path owns what happens next);
                    # refill the slot so the round can continue warm-ish.
                    died = True
                    worker.job = None
                    worker = self._respawn(worker)
                else:
                    results[key] = outcome
                    worker.job = None
                if queue:
                    item = queue.popleft()
                    if not self._dispatch(worker, item):
                        died = True
                        self._respawn(worker)
        return results, died
