"""Job store / queue / executor-pool lifecycle and concurrency tests.

Most of this drives the service's asyncio internals directly (no
HTTP): the submit/cancel/complete state machine, clients racing the
same job id, priority-queue fairness under a saturated pool, and the
server-restart resume path, which must reproduce an uninterrupted
run's values bit-for-bit from the engine checkpoint.  A spill
directory that stops taking writes must fail jobs, not executor
slots; those cases read the SSE stream over HTTP to its ``done``.
"""

import asyncio
import dataclasses
import errno
import json
import os

import pytest

from repro.runner import SessionSpec, SweepSpec, run_sessions
from repro.runner.checkpoint import CheckpointWriter
from repro.runner.workers import rng_probe
from repro.serve import (
    TERMINAL_STATES,
    ExecutorPool,
    JobNotFound,
    JobQueue,
    JobRequest,
    JobStateError,
    JobStore,
    JobStoreFull,
    ServeConfig,
    SweepService,
    execute_request,
    job_request_to_json,
    parse_events,
    result_to_json,
)
from tests.test_serve_service import http, http_json

pytestmark = pytest.mark.serve


def sweep_request(n_units=6, seed=3, chunk_size=2, priority=0):
    return JobRequest(
        kind="sweep",
        fn="rng_probe",
        sweep=SweepSpec(
            axes={"i": list(range(n_units))},
            seed=seed,
            chunk_size=chunk_size,
        ),
        priority=priority,
    )


async def wait_terminal(store, job_id, timeout=60.0):
    """Block until a job reaches a terminal state (via its events)."""

    async def follow():
        async for _ in store.subscribe(job_id):
            pass
        return await store.get(job_id)

    return await asyncio.wait_for(follow(), timeout)


class TestStateMachine:
    def test_submit_starts_queued(self):
        async def main():
            store = JobStore()
            job = await store.submit(sweep_request())
            assert job.state == "queued"
            assert job.id == "job-000001"
            assert [e.event for e in job.events] == ["state"]
            return job

        asyncio.run(main())

    def test_legal_path_to_completed(self):
        async def main():
            store = JobStore()
            job = await store.submit(sweep_request())
            await store.advance(job.id, "running")
            result = execute_request(job.request)
            done = await store.complete(job.id, result)
            assert done.state == "completed"
            assert done.result["points"]
            event_kinds = [e.event for e in done.events]
            assert event_kinds[-1] == "state"
            assert "metrics" in event_kinds

        asyncio.run(main())

    def test_illegal_transitions_raise(self):
        async def main():
            store = JobStore()
            job = await store.submit(sweep_request())
            result = execute_request(job.request)
            with pytest.raises(JobStateError):
                await store.complete(job.id, result)  # queued -> done
            await store.advance(job.id, "running")
            with pytest.raises(JobStateError):
                await store.advance(job.id, "queued")
            await store.advance(job.id, "failed", error="boom")
            with pytest.raises(JobStateError):
                await store.advance(job.id, "running")

        asyncio.run(main())

    def test_cancel_semantics(self):
        async def main():
            store = JobStore()
            job = await store.submit(sweep_request())
            cancelled = await store.cancel(job.id)
            assert cancelled.state == "cancelled"
            # idempotent once cancelled
            again = await store.cancel(job.id)
            assert again.state == "cancelled"
            # but cancelling a *completed* job is a state error
            other = await store.submit(sweep_request())
            await store.advance(other.id, "running")
            await store.complete(
                other.id, execute_request(other.request)
            )
            with pytest.raises(JobStateError):
                await store.cancel(other.id)

        asyncio.run(main())

    def test_cancel_running_is_deferred(self):
        async def main():
            store = JobStore()
            job = await store.submit(sweep_request())
            await store.advance(job.id, "running")
            pending = await store.cancel(job.id)
            assert pending.state == "running"
            assert pending.cancel_requested
            assert pending.events[-1].event == "cancelling"
            done = await store.advance(job.id, "cancelled")
            assert done.state == "cancelled"

        asyncio.run(main())

    def test_delete_requires_terminal(self):
        async def main():
            store = JobStore()
            job = await store.submit(sweep_request())
            with pytest.raises(JobStateError):
                await store.delete(job.id)
            await store.cancel(job.id)
            await store.delete(job.id)
            with pytest.raises(JobNotFound):
                await store.get(job.id)

        asyncio.run(main())

    def test_max_jobs_enforced(self):
        async def main():
            store = JobStore(max_jobs=1)
            await store.submit(sweep_request())
            with pytest.raises(JobStoreFull):
                await store.submit(sweep_request())

        asyncio.run(main())


class TestConcurrency:
    def test_two_clients_racing_cancel_same_job(self):
        """Both cancels succeed; exactly one state transition happens."""

        async def main():
            store = JobStore()
            job = await store.submit(sweep_request())
            first, second = await asyncio.gather(
                store.cancel(job.id), store.cancel(job.id)
            )
            assert first.state == second.state == "cancelled"
            final = await store.get(job.id)
            transitions = [
                e for e in final.events if e.event == "state"
            ]
            assert [e.data["state"] for e in transitions] == [
                "queued",
                "cancelled",
            ]

        asyncio.run(main())

    def test_cancel_races_delete(self):
        """cancel + delete interleavings never corrupt the store."""

        async def main():
            store = JobStore()
            job = await store.submit(sweep_request())

            async def cancel_then_delete():
                await store.cancel(job.id)
                await store.delete(job.id)

            results = await asyncio.gather(
                cancel_then_delete(),
                store.cancel(job.id),
                return_exceptions=True,
            )
            # Whatever interleaving ran, the job is gone afterwards
            # and no exception other than the legal not-found /
            # state errors surfaced.
            for outcome in results:
                assert outcome is None or isinstance(
                    outcome, (JobNotFound, JobStateError, KeyError)
                )
            with pytest.raises(JobNotFound):
                await store.get(job.id)

        asyncio.run(main())

    def test_queue_fairness_priority_then_fifo(self):
        """One slot, four jobs: high priority first, FIFO within."""

        async def main():
            store = JobStore()
            queue = JobQueue()
            requests = [
                sweep_request(seed=1, priority=0),
                sweep_request(seed=2, priority=5),
                sweep_request(seed=3, priority=0),
                sweep_request(seed=4, priority=5),
            ]
            jobs = []
            for request in requests:
                job = await store.submit(request)
                jobs.append(job)
                await queue.put(job)
            assert queue.depth == 4
            pool = ExecutorPool(store, queue, slots=1)
            await pool.start()
            for job in jobs:
                await wait_terminal(store, job.id)
            await pool.stop()
            expected = [
                jobs[1].id,  # priority 5, submitted first
                jobs[3].id,  # priority 5, submitted second
                jobs[0].id,  # priority 0, submitted first
                jobs[2].id,
            ]
            assert store.dispatch_log == expected

        asyncio.run(main())

    def test_lazy_removal_skips_cancelled_jobs(self):
        async def main():
            store = JobStore()
            queue = JobQueue()
            jobs = [
                await store.submit(sweep_request(seed=s))
                for s in (1, 2, 3)
            ]
            for job in jobs:
                await queue.put(job)
            await queue.remove(jobs[1].id)
            assert queue.depth == 2
            assert await queue.get() == jobs[0].id
            assert await queue.get() == jobs[2].id
            assert queue.depth == 0

        asyncio.run(main())


class TestPoolExecution:
    def test_pool_completes_job_bit_identical_to_direct_run(self):
        async def main():
            store = JobStore()
            queue = JobQueue()
            job = await store.submit(sweep_request(n_units=8))
            await queue.put(job)
            pool = ExecutorPool(store, queue, slots=2)
            await pool.start()
            done = await wait_terminal(store, job.id)
            await pool.stop()
            assert done.state == "completed"
            direct = result_to_json(execute_request(job.request))
            assert done.result == direct
            # every chunk reported, in completion order, none resumed
            chunk_events = [
                e.data for e in done.events if e.event == "chunk"
            ]
            assert len(chunk_events) == 4
            assert [e["chunks_done"] for e in chunk_events] == [
                1, 2, 3, 4,
            ]
            assert not any(e["resumed"] for e in chunk_events)

        asyncio.run(main())

    def test_pool_survives_failing_job(self):
        async def main():
            store = JobStore()
            queue = JobQueue()
            # nlos_session_stats with a bogus location raises inside
            # the engine; the slot must mark the job failed and then
            # complete the next job normally.
            bad = await store.submit(
                JobRequest(
                    kind="sweep",
                    fn="nlos_session_stats",
                    sweep=SweepSpec(
                        axes={"location": ["nowhere"]}, seed=0
                    ),
                )
            )
            good = await store.submit(sweep_request())
            await queue.put(bad)
            await queue.put(good)
            pool = ExecutorPool(store, queue, slots=1)
            await pool.start()
            bad_done = await wait_terminal(store, bad.id)
            good_done = await wait_terminal(store, good.id)
            await pool.stop()
            assert bad_done.state == "failed"
            assert bad_done.error
            assert good_done.state == "completed"

        asyncio.run(main())

    def test_cooperative_cancel_stops_at_chunk_boundary(self):
        async def main():
            store = JobStore()
            queue = JobQueue()
            job = await store.submit(sweep_request(n_units=10))
            # Cancel lands while the job is conceptually mid-run: the
            # flag is set before the pool picks the job up, so the
            # first chunk-boundary check trips it.
            job.cancel_requested = True
            await queue.put(job)
            pool = ExecutorPool(store, queue, slots=1)
            await pool.start()
            done = await wait_terminal(store, job.id)
            await pool.stop()
            assert done.state == "cancelled"
            assert done.chunks_done < 5

        asyncio.run(main())

    def test_execute_request_pooled_matches_serial(self):
        request = sweep_request(n_units=6)
        reference = result_to_json(execute_request(request))
        pooled = result_to_json(
            execute_request(dataclasses.replace(request, n_workers=2))
        )
        assert pooled["executor"] == "process"
        assert pooled["points"] == reference["points"]

    def test_sessions_job_matches_direct_run_on_the_pool(self):
        # Fewer queries per session than units per chunk: the pool
        # still runs it, since the worker count alone picks the executor.
        spec = SessionSpec(distance_m=3.0)
        request = JobRequest(
            kind="sessions",
            sessions=spec,
            n_sessions=3,
            queries=2,
            chunk_size=8,
            n_workers=2,
        )

        async def main():
            store = JobStore()
            queue = JobQueue()
            job = await store.submit(request)
            await queue.put(job)
            pool = ExecutorPool(store, queue, slots=1)
            await pool.start()
            done = await wait_terminal(store, job.id)
            await pool.stop()
            return done

        done = asyncio.run(main())
        assert done.state == "completed"
        direct = result_to_json(
            run_sessions(spec, 3, queries=2, chunk_size=8, n_workers=1)
        )
        assert done.result["points"] == direct["points"]
        assert done.result["executor"] == "process"


class TestRestartResume:
    def test_restart_resumes_bit_identical(self, tmp_path, chaos):
        """Kill-and-restart at the store level.

        Store #1 accepts the job, then the 'server' dies mid-run
        (simulated by running the job's spec against its checkpoint
        path with a permanent injected crash).  Store #2 on the same
        spill dir recovers the job, resumes from the checkpoint, and
        must produce exactly the values an uninterrupted run gives.
        """
        spill = str(tmp_path / "spill")
        request = sweep_request(n_units=8, seed=17, chunk_size=2)

        async def submit_only():
            store = JobStore(spill)
            job = await store.submit(request)
            return store.checkpoint_path(job.id), job.id

        checkpoint, job_id = asyncio.run(submit_only())

        # the crash: chunks 0-1 complete and spill, chunk 2 dies
        chaos.partial_checkpoint(
            rng_probe, request.sweep, checkpoint, crash_unit=5
        )

        async def restart_and_finish():
            store = JobStore(spill)
            queue = JobQueue()
            recovered = store.load_jobs()
            assert [job.id for job in recovered] == [job_id]
            assert recovered[0].recovered
            for job in recovered:
                await queue.put(job)
            pool = ExecutorPool(store, queue, slots=1)
            await pool.start()
            done = await wait_terminal(store, job_id)
            await pool.stop()
            return done

        done = asyncio.run(restart_and_finish())
        assert done.state == "completed"
        # chunks 0-1 finished before the crash; the scheduler may have
        # drained later chunks too, but the crashed chunk itself can
        # never have spilled, so at least one chunk was recomputed.
        assert 2 <= done.result["resumed_chunks"] <= 3
        resumed_events = [
            e.data
            for e in done.events
            if e.event == "chunk" and e.data["resumed"]
        ]
        assert len(resumed_events) == done.result["resumed_chunks"]
        direct = result_to_json(execute_request(request))
        assert done.result["points"] == direct["points"]

    def test_completed_jobs_reload_with_results(self, tmp_path):
        spill = str(tmp_path / "spill")
        request = sweep_request()

        async def run_once():
            store = JobStore(spill)
            queue = JobQueue()
            job = await store.submit(request)
            await queue.put(job)
            pool = ExecutorPool(store, queue, slots=1)
            await pool.start()
            done = await wait_terminal(store, job.id)
            await pool.stop()
            return done

        done = asyncio.run(run_once())

        async def reload():
            store = JobStore(spill)
            pending = store.load_jobs()
            assert pending == []
            return await store.get(done.id)

        reloaded = asyncio.run(reload())
        assert reloaded.state == "completed"
        assert reloaded.result == done.result
        # Progress counters survive the restart, so a reloaded summary
        # still reports how the job ran.
        assert reloaded.chunks_done == done.chunks_done
        assert reloaded.n_chunks == done.n_chunks
        assert reloaded.resumed_chunks == done.resumed_chunks


def no_space() -> OSError:
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class FullDisk:
    """The spill directory's writers, failing on demand with ENOSPC.

    ``sidecars`` fails :meth:`JobStore._write_json` (job sidecars and
    result payloads) while set; ``spills`` fails the checkpoint's chunk
    records.  ``sidecar_when`` narrows the sidecar failures to the
    writes whose path and payload it accepts.
    """

    def __init__(self, monkeypatch):
        self.sidecars = False
        self.spills = False
        self.sidecar_when = lambda path, payload: True
        write_json = JobStore._write_json
        write_line = CheckpointWriter._write_line

        def full_write_json(store, path, payload):
            if self.sidecars and self.sidecar_when(path, payload):
                raise no_space()
            write_json(store, path, payload)

        def full_write_line(writer, record):
            if self.spills and record["kind"] == "chunk":
                raise no_space()
            write_line(writer, record)

        monkeypatch.setattr(JobStore, "_write_json", full_write_json)
        monkeypatch.setattr(CheckpointWriter, "_write_line", full_write_line)


async def submit_and_follow(port, request):
    """POST ``request``; its id and its SSE events, read to EOF."""
    status, submitted = await http_json(
        port, "POST", "/jobs", body=job_request_to_json(request)
    )
    assert status == 202, submitted
    return submitted["id"], await follow(port, submitted["id"])


async def follow(port, job_id):
    _, _, stream = await http(port, "GET", f"/jobs/{job_id}/events")
    return parse_events(stream)


def states(events):
    return [e.data["state"] for e in events if e.event == "state"]


class TestFullSpillDirectory:
    """Writes to the spill directory fail: jobs fail, slots carry on."""

    def test_failed_write_removes_its_tmp_file(self, tmp_path, monkeypatch):
        store = JobStore(tmp_path)

        def torn_dump(payload, handle):
            handle.write("{")
            raise no_space()

        monkeypatch.setattr(json, "dump", torn_dump)
        with pytest.raises(OSError, match="No space left"):
            store._write_json(str(tmp_path / "job.json"), {"state": "x"})
        assert list(tmp_path.iterdir()) == []

    def test_submit_that_cannot_persist_leaves_no_job(
        self, tmp_path, monkeypatch
    ):
        disk = FullDisk(monkeypatch)

        async def main():
            service = SweepService(
                ServeConfig(spill_dir=str(tmp_path), slots=1)
            )
            await service.start()
            try:
                disk.sidecars = True
                status, body = await http_json(
                    service.port,
                    "POST",
                    "/jobs",
                    body=job_request_to_json(sweep_request()),
                )
                listed = await http_json(service.port, "GET", "/jobs")
                disk.sidecars = False
                job = await service.store.submit(sweep_request())
            finally:
                await service.stop()
            return status, body, listed, job

        status, body, listed, job = asyncio.run(main())
        assert status >= 500
        assert "No space left" in body["error"]
        assert listed == (200, [])
        assert job.id == "job-000001"
        assert [p.name for p in tmp_path.iterdir()] == [
            "job-000001.job.json"
        ]

    def test_running_sidecar_failure_fails_job_not_slot(
        self, tmp_path, monkeypatch
    ):
        disk = FullDisk(monkeypatch)
        spill = tmp_path / "spill"

        async def main():
            service = SweepService(
                ServeConfig(spill_dir=str(spill), slots=1)
            )
            await service.start()
            try:
                # The submit's sidecar lands; every write after it fails.
                disk.sidecar_when = lambda path, payload: (
                    payload.get("state") != "queued"
                )
                disk.sidecars = True
                failed_id, failed_events = await submit_and_follow(
                    service.port, sweep_request(n_units=4)
                )
                failed = await service.store.get(failed_id)
                disk.sidecars = False
                _, done_events = await submit_and_follow(
                    service.port, sweep_request(n_units=4, seed=4)
                )
            finally:
                await service.stop()
            return failed, failed_events, done_events

        failed, failed_events, done_events = asyncio.run(main())
        assert failed.state == "failed"
        assert "No space left on device" in failed.error
        assert states(failed_events) == ["queued", "failed"]
        assert failed_events[-1].event == "done"
        assert states(done_events)[-1] == "completed"
        assert not list(spill.glob("*.tmp"))

        # The failed job's sidecar still says queued, so a restarted
        # server reloads it from there and runs it again.
        (recovered,) = JobStore(spill).load_jobs()
        assert recovered.id == failed.id
        assert recovered.recovered

    def test_checkpoint_spill_failure_fails_job_and_restart_resumes(
        self, tmp_path, monkeypatch
    ):
        disk = FullDisk(monkeypatch)
        spill = tmp_path / "spill"
        request = dataclasses.replace(sweep_request(n_units=6), n_workers=2)

        async def serve(fill_disk):
            service = SweepService(
                ServeConfig(spill_dir=str(spill), slots=1)
            )
            await service.start()
            try:
                if fill_disk:
                    # Chunk records fail, and so does every sidecar
                    # after the one saying the job runs.
                    disk.spills = True
                    disk.sidecar_when = lambda path, payload: (
                        payload.get("state") not in ("queued", "running")
                    )
                    disk.sidecars = True
                    job_id, events = await submit_and_follow(
                        service.port, request
                    )
                else:
                    (job,) = await service.store.list_jobs()
                    job_id = job.id
                    events = await follow(service.port, job_id)
                job = await service.store.get(job_id)
            finally:
                await service.stop()
            return job, events

        failed, events = asyncio.run(serve(fill_disk=True))
        assert failed.state == "failed"
        assert failed.error.startswith("OSError")
        assert "No space left on device" in failed.error
        assert states(events) == ["queued", "running", "failed"]
        assert events[-1].event == "done"
        assert not list(spill.glob("*.tmp"))

        disk.spills = disk.sidecars = False
        resumed, events = asyncio.run(serve(fill_disk=False))
        assert resumed.recovered
        assert states(events)[-1] == "completed"
        direct = result_to_json(execute_request(request))
        assert resumed.result["points"] == direct["points"]

    @pytest.mark.parametrize(
        "blocked",
        [
            lambda path, payload: path.endswith(".result.json"),
            lambda path, payload: payload.get("state") == "completed",
        ],
        ids=["result", "sidecar"],
    )
    def test_completion_write_failure_fails_job(
        self, tmp_path, monkeypatch, blocked
    ):
        disk = FullDisk(monkeypatch)
        disk.sidecar_when = blocked

        async def main():
            store = JobStore(tmp_path)
            queue = JobQueue()
            disk.sidecars = True
            failed = await store.submit(sweep_request())
            await queue.put(failed)
            pool = ExecutorPool(store, queue, slots=1)
            await pool.start()
            try:
                failed = await wait_terminal(store, failed.id)
                disk.sidecars = False
                done = await store.submit(sweep_request(seed=4))
                await queue.put(done)
                done = await wait_terminal(store, done.id)
            finally:
                await pool.stop()
            return failed, done

        failed, done = asyncio.run(main())
        assert failed.state == "failed"
        assert failed.result is None
        assert "No space left on device" in failed.error
        assert states(failed.events) == ["queued", "running", "failed"]
        assert done.state == "completed"
        assert not list(tmp_path.glob("*.tmp"))
