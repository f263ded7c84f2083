"""Job store / queue / executor-pool lifecycle and concurrency tests.

Everything here drives the service's asyncio internals directly (no
HTTP): the submit/cancel/complete state machine, clients racing the
same job id, priority-queue fairness under a saturated pool, and the
server-restart resume path, which must reproduce an uninterrupted
run's values bit-for-bit from the engine checkpoint.
"""

import asyncio
import dataclasses

import pytest

from repro.runner import SweepSpec
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
    execute_request,
    result_to_json,
)

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
