"""End-to-end tests for the HTTP job service (in-process, port 0).

The acceptance path from the ISSUE: boot the server in-process, submit
the reference sweep over real HTTP, consume the SSE stream to
completion, and assert the served result is bit-identical to a direct
``run_sweep`` with the same spec and seed — plus the kill-and-restart
variant, which must resume from the engine checkpoint bit-identically.
"""

import asyncio
import dataclasses
import json
import threading

import pytest

from repro.runner import SweepSpec
from repro.runner.workers import rng_probe
from repro.serve import (
    JobRequest,
    JobStore,
    ServeConfig,
    SweepService,
    execute_request,
    job_request_to_json,
    parse_events,
    result_to_json,
)

pytestmark = pytest.mark.serve

REFERENCE_REQUEST = JobRequest(
    kind="sweep",
    fn="rng_probe",
    sweep=SweepSpec(
        axes={"i": list(range(8))}, seed=2018, chunk_size=2
    ),
    n_workers=1,
)


#: Upper bound on one HTTP exchange, read to EOF.  A process that keeps
#: the server's end of the connection open (a forked pool worker, say)
#: fails the test here instead of stalling it.
EXCHANGE_TIMEOUT_S = 30.0


async def http(port, method, path, body=None, headers=None):
    """Minimal one-shot HTTP client over asyncio streams."""
    return await asyncio.wait_for(
        _exchange(port, method, path, body, headers), EXCHANGE_TIMEOUT_S
    )


async def _exchange(port, method, path, body, headers):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = (
        json.dumps(body).encode("utf-8") if body is not None else b""
    )
    lines = [f"{method} {path} HTTP/1.1", "Host: test"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    lines.append(f"Content-Length: {len(payload)}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    writer.write(head.encode("latin-1") + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head_blob, _, body_bytes = raw.partition(b"\r\n\r\n")
    status = int(head_blob.split(b" ", 2)[1])
    return status, head_blob.decode("latin-1"), body_bytes


async def http_json(port, method, path, body=None, headers=None):
    status, _, body_bytes = await http(
        port, method, path, body=body, headers=headers
    )
    return status, json.loads(body_bytes)


class TestEndToEnd:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_submit_stream_result_bit_identical(self, tmp_path, n_workers):
        request = dataclasses.replace(REFERENCE_REQUEST, n_workers=n_workers)

        async def main():
            config = ServeConfig(
                port=0, slots=2, spill_dir=str(tmp_path / "spill")
            )
            service = SweepService(config)
            await service.start()
            try:
                port = service.port
                status, submitted = await http_json(
                    port,
                    "POST",
                    "/jobs",
                    body=job_request_to_json(request),
                )
                assert status == 202
                job_id = submitted["id"]
                assert submitted["state"] == "queued"

                # consume the live SSE stream to completion
                status, head, stream = await http(
                    port, "GET", f"/jobs/{job_id}/events"
                )
                assert status == 200
                assert "text/event-stream" in head
                events = parse_events(stream)
                kinds = [e.event for e in events]
                assert kinds[0] == "state"
                assert kinds[-1] == "done"
                chunk_events = [
                    e for e in events if e.event == "chunk"
                ]
                assert len(chunk_events) == 4
                assert [
                    e.data["chunks_done"] for e in chunk_events
                ] == [1, 2, 3, 4]
                states = [
                    e.data["state"]
                    for e in events
                    if e.event == "state"
                ]
                assert states[-1] == "completed"
                # SSE ids are the per-job event ids, monotonically
                # increasing, so Last-Event-ID replay is well-defined.
                ids = [e.id for e in events if e.id is not None]
                assert ids == sorted(ids)

                # the served result is bit-identical to a direct run
                status, served = await http_json(
                    port, "GET", f"/jobs/{job_id}/result"
                )
                assert status == 200
                direct = result_to_json(execute_request(request))
                assert served == direct

                # replay from a cursor: everything already seen is
                # skipped, the terminal frame still arrives
                last_seen = max(ids)
                status, _, tail = await http(
                    port,
                    "GET",
                    f"/jobs/{job_id}/events?after={last_seen}",
                )
                assert status == 200
                assert [e.event for e in parse_events(tail)] == [
                    "done"
                ]
                status, _, tail = await http(
                    port,
                    "GET",
                    f"/jobs/{job_id}/events",
                    headers={"Last-Event-ID": str(last_seen - 1)},
                )
                replayed = parse_events(tail)
                assert [e.id for e in replayed[:-1]] == [last_seen]
            finally:
                await service.stop()

        asyncio.run(main())

    def test_kill_and_restart_resumes_bit_identical(
        self, tmp_path, chaos
    ):
        """Server #1 dies mid-job; server #2 serves the exact result.

        The kill is simulated deterministically: the job is persisted
        queued (the same store path a POST takes), then its spec runs
        against the job's checkpoint file with a permanent injected
        crash — precisely the on-disk state a SIGKILLed server leaves.
        Server #2 boots on the spill dir, recovers the job, resumes
        from the checkpoint, and the result served over HTTP matches a
        never-interrupted direct run bit-for-bit.
        """
        spill = str(tmp_path / "spill")

        async def persist_queued_job():
            store = JobStore(spill)
            job = await store.submit(REFERENCE_REQUEST)
            return job.id, store.checkpoint_path(job.id)

        job_id, checkpoint = asyncio.run(persist_queued_job())
        chaos.partial_checkpoint(
            rng_probe,
            REFERENCE_REQUEST.sweep,
            checkpoint,
            crash_unit=5,
        )

        async def restart_and_serve():
            service = SweepService(
                ServeConfig(port=0, slots=1, spill_dir=spill)
            )
            await service.start()
            try:
                port = service.port
                status, summary = await http_json(
                    port, "GET", f"/jobs/{job_id}"
                )
                assert status == 200
                assert summary["recovered"]

                status, _, stream = await http(
                    port, "GET", f"/jobs/{job_id}/events"
                )
                assert status == 200
                events = parse_events(stream)
                resumed = [
                    e
                    for e in events
                    if e.event == "chunk" and e.data["resumed"]
                ]
                assert len(resumed) >= 2

                status, served = await http_json(
                    port, "GET", f"/jobs/{job_id}/result"
                )
                assert status == 200
                return served
            finally:
                await service.stop()

        served = asyncio.run(restart_and_serve())
        direct = result_to_json(execute_request(REFERENCE_REQUEST))
        assert served["points"] == direct["points"]
        assert served["resumed_chunks"] >= 2


class TestHttpContract:
    def test_endpoints_and_error_codes(self, tmp_path):
        async def main():
            service = SweepService(ServeConfig(port=0, slots=1))
            await service.start()
            try:
                port = service.port

                status, health = await http_json(
                    port, "GET", "/healthz"
                )
                assert status == 200
                assert health["ok"] is True
                assert "queue_depth" in health

                status, _, metrics = await http(
                    port, "GET", "/metrics"
                )
                assert status == 200
                text = metrics.decode("utf-8")
                assert "serve_jobs_submitted_total" in text
                assert "serve_queue_depth" in text

                status, listing = await http_json(
                    port, "GET", "/jobs"
                )
                assert status == 200 and listing == []

                status, error = await http_json(
                    port, "GET", "/jobs/job-999999"
                )
                assert status == 404
                status, error = await http_json(
                    port, "POST", "/jobs", body={"kind": "bogus"}
                )
                assert status == 400
                assert "kind" in error["error"]
                status, error = await http_json(
                    port,
                    "POST",
                    "/jobs",
                    body={
                        "fn": "los_ber_point",
                        "fn_kwargs": {"warm": True},
                        "sweep": {"axes": {"distance_m": [1.0]}},
                    },
                )
                assert status == 400
                assert "fn_kwargs['warm']" in error["error"]
                status, _, body = await http(
                    port, "DELETE", "/healthz"
                )
                assert status == 404
                status, _, body = await http(port, "PUT", "/jobs")
                assert status == 405

                # submit, then exercise result-not-ready and delete
                status, submitted = await http_json(
                    port,
                    "POST",
                    "/jobs",
                    body=job_request_to_json(REFERENCE_REQUEST),
                )
                assert status == 202
                job_id = submitted["id"]
                # stream to completion, then the lifecycle endpoints
                await http(port, "GET", f"/jobs/{job_id}/events")
                status, served = await http_json(
                    port, "GET", f"/jobs/{job_id}/result"
                )
                assert status == 200
                status, deleted = await http_json(
                    port, "DELETE", f"/jobs/{job_id}"
                )
                assert status == 200 and deleted["deleted"]
                status, _ = await http_json(
                    port, "GET", f"/jobs/{job_id}"
                )
                assert status == 404
            finally:
                await service.stop()

        asyncio.run(main())

    def test_cancel_via_delete_on_queued_job(self, tmp_path, monkeypatch):
        # The first job holds the slot until the DELETE is answered.
        # Ungated, it can finish between the second POST and the
        # DELETE, and the second job is then already running.
        from repro.serve import jobs

        gate = threading.Event()
        execute = jobs.execute_request

        def gated_execute(*args, **kwargs):
            gate.wait(60.0)
            return execute(*args, **kwargs)

        monkeypatch.setattr(jobs, "execute_request", gated_execute)

        async def main():
            # zero free slots is impossible (slots >= 1), so saturate
            # the single slot with one job and cancel the one behind it
            service = SweepService(ServeConfig(port=0, slots=1))
            await service.start()
            try:
                port = service.port
                body = job_request_to_json(REFERENCE_REQUEST)
                _, first = await http_json(
                    port, "POST", "/jobs", body=body
                )
                _, second = await http_json(
                    port, "POST", "/jobs", body=body
                )
                status, cancelled = await http_json(
                    port, "DELETE", f"/jobs/{second['id']}"
                )
                assert status in (200, 202)
                gate.set()
                # drain the first job so shutdown is clean
                await http(
                    port, "GET", f"/jobs/{first['id']}/events"
                )
                status, summary = await http_json(
                    port, "GET", f"/jobs/{second['id']}"
                )
                assert summary["state"] == "cancelled"
            finally:
                gate.set()
                await service.stop()

        asyncio.run(main())

    def test_result_conflict_while_not_completed(self):
        async def main():
            service = SweepService(ServeConfig(port=0, slots=1))
            await service.start()
            try:
                # into the HTTP layer's own store, but never enqueued:
                # the job deterministically stays queued, so /result
                # must answer 409, not a partial payload
                job = await service.store.submit(REFERENCE_REQUEST)
                status, error = await http_json(
                    service.port, "GET", f"/jobs/{job.id}/result"
                )
                assert status == 409
                assert job.id in error["error"]
            finally:
                await service.stop()

        asyncio.run(main())

    def test_oversized_body_gets_413_and_server_keeps_serving(self):
        from repro.serve.app import MAX_BODY_BYTES

        async def oversized_head_only(port):
            # Headers only: the server must refuse on Content-Length
            # alone, before reading a byte of the body.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            head = (
                "POST /jobs HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
            )
            writer.write(head.encode("latin-1"))
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), EXCHANGE_TIMEOUT_S)
            writer.close()
            await writer.wait_closed()
            head_blob, _, body = raw.partition(b"\r\n\r\n")
            return int(head_blob.split(b" ", 2)[1]), json.loads(body)

        async def main():
            service = SweepService(ServeConfig(port=0, slots=1))
            await service.start()
            try:
                status, error = await oversized_head_only(service.port)
                assert status == 413
                assert isinstance(error["error"], str) and error["error"]
                status, health = await http_json(
                    service.port, "GET", "/healthz"
                )
                assert status == 200 and health["ok"]
            finally:
                await service.stop()

        asyncio.run(main())
