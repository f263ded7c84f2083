"""The asyncio HTTP front end of the sweep job service.

Stdlib-only by design: a small HTTP/1.1 request parser over asyncio
streams, a route table, and SSE streaming — no web framework, which
keeps the service importable everywhere the simulator is (the ISSUE's
no-new-dependencies constraint).  Each connection serves exactly one
request (``Connection: close``), which sidesteps keep-alive parsing
while costing nothing at the request rates a sweep service sees.

Endpoints (see ``docs/service.md`` for the full contract):

=======  =======================  ==========================================
Method   Path                     Meaning
=======  =======================  ==========================================
POST     /jobs                    submit a job (JSON body -> 202 + summary)
GET      /jobs                    list job summaries
GET      /jobs/{id}               one job's summary
GET      /jobs/{id}/result        completed job's result payload
GET      /jobs/{id}/events        live SSE stream of the job's events
DELETE   /jobs/{id}               cancel an active job / delete a terminal one
GET      /metrics                 Prometheus text exposition
GET      /metrics?format=json     metrics registry snapshot as JSON
GET      /healthz                 liveness + store census
GET      /dash                    self-contained live HTML dashboard
=======  =======================  ==========================================
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from ..obs.serve import ServerMetrics
from .dash import DASHBOARD_HTML
from .jobs import (
    TERMINAL_STATES,
    ExecutorPool,
    JobNotFound,
    JobQueue,
    JobStateError,
    JobStore,
    JobStoreFull,
)
from .schema import SchemaError, job_request_from_json
from .sse import format_event

__all__ = ["ServeConfig", "SweepService"]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

#: Upper bound on request bodies; a sweep spec is tiny, so anything
#: bigger is a client bug, not a bigger sweep.
MAX_BODY_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class ServeConfig:
    """Configuration for one :class:`SweepService`.

    Attributes:
        host: interface to bind.
        port: TCP port (0 lets the OS pick; see ``SweepService.port``).
        slots: executor slots = jobs running concurrently.
        spill_dir: directory for job sidecars + engine checkpoints;
            ``None`` runs ephemeral (no durability, no resume).
        max_jobs: cap on non-terminal jobs in the store.
        warm_workers: per-slot persistent warm-pool size; 0 (default)
            keeps the classic per-job executors.  See
            :class:`repro.serve.jobs.ExecutorPool`.
    """

    host: str = "127.0.0.1"
    port: int = 0
    slots: int = 2
    spill_dir: str | None = None
    max_jobs: int = 1024
    warm_workers: int = 0

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        if self.max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")
        if not (0 <= self.port <= 65535):
            raise ValueError("port must be in [0, 65535]")
        if self.warm_workers < 0:
            raise ValueError("warm_workers must be >= 0")

    def to_json(self) -> dict[str, Any]:
        return {
            "host": self.host,
            "port": self.port,
            "slots": self.slots,
            "spill_dir": self.spill_dir,
            "max_jobs": self.max_jobs,
            "warm_workers": self.warm_workers,
        }


class _HttpError(Exception):
    """Internal: unwinds request handling into an error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class SweepService:
    """One job server: store + queue + executor pool + HTTP listener.

    Usable two ways: ``await service.start()`` / ``await
    service.stop()`` from an existing loop (tests boot it in-process on
    port 0), or ``service.run_forever()`` from the ``repro serve`` CLI.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.metrics = ServerMetrics()
        self.store = JobStore(
            self.config.spill_dir,
            metrics=self.metrics,
            max_jobs=self.config.max_jobs,
        )
        self.queue = JobQueue()
        self.pool = ExecutorPool(
            self.store,
            self.queue,
            slots=self.config.slots,
            metrics=self.metrics,
            warm_workers=self.config.warm_workers,
        )
        self._server: asyncio.Server | None = None

    # -- lifecycle --------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` after ``start``)."""
        if self._server is None:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Recover persisted jobs, start the pool, bind the listener."""
        for job in self.store.load_jobs():
            await self.queue.put(job)
        self.metrics.set_queue_depth(self.queue.depth)
        await self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.pool.stop()

    def run_forever(self) -> None:
        """Blocking entry point for the CLI (Ctrl-C stops cleanly)."""

        async def _main() -> None:
            await self.start()
            assert self._server is not None
            try:
                await self._server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await self.stop()

        asyncio.run(_main())

    # -- request plumbing -------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                method, path, headers, body = await self._read_request(
                    reader
                )
            except _HttpError as error:
                await self._send_json(
                    writer, error.status, {"error": error.message}
                )
                return
            try:
                await self._route(
                    writer, method, path, headers, body
                )
            except _HttpError as error:
                await self._send_json(
                    writer, error.status, {"error": error.message}
                )
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                raise
            except Exception as error:  # noqa: BLE001 - last resort
                await self._send_json(
                    writer,
                    500,
                    {"error": f"{type(error).__name__}: {error}"},
                )
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes]:
        request_line = (await reader.readline()).decode(
            "latin-1"
        ).rstrip("\r\n")
        if not request_line:
            raise _HttpError(400, "empty request")
        parts = request_line.split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        method, target, _ = parts
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").rstrip(
                "\r\n"
            )
            if not line:
                break
            name, sep, value = line.partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header: {line!r}")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _HttpError(
                400, f"bad Content-Length: {length_text!r}"
            ) from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    async def _send_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        payload: bytes,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any] | list[Any],
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        await self._send_response(
            writer, status, "application/json", body
        )

    # -- routing ----------------------------------------------------------

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
    ) -> None:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        segments = [s for s in path.split("/") if s]

        if path == "/healthz" and method == "GET":
            await self._send_json(
                writer,
                200,
                {
                    "ok": True,
                    "version": __version__,
                    "slots": self.config.slots,
                    "queue_depth": self.queue.depth,
                    "jobs": self.store.census(),
                },
            )
            return
        if path == "/metrics" and method == "GET":
            fmt = query.get("format", ["prometheus"])[-1]
            if fmt == "json":
                await self._send_json(writer, 200, self.metrics.snapshot())
                return
            if fmt != "prometheus":
                raise _HttpError(400, f"unknown metrics format: {fmt!r}")
            await self._send_response(
                writer,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                self.metrics.render_prometheus().encode("utf-8"),
            )
            return
        if path == "/dash" and method == "GET":
            await self._send_response(
                writer,
                200,
                "text/html; charset=utf-8",
                DASHBOARD_HTML.encode("utf-8"),
            )
            return
        if path == "/jobs":
            if method == "POST":
                await self._post_job(writer, body)
                return
            if method == "GET":
                jobs = await self.store.list_jobs()
                await self._send_json(
                    writer, 200, [job.summary() for job in jobs]
                )
                return
            raise _HttpError(405, f"{method} not allowed on /jobs")
        if len(segments) >= 2 and segments[0] == "jobs":
            job_id = segments[1]
            tail = segments[2:]
            if not tail:
                if method == "GET":
                    await self._get_job(writer, job_id)
                    return
                if method == "DELETE":
                    await self._delete_job(writer, job_id)
                    return
                raise _HttpError(
                    405, f"{method} not allowed on /jobs/{{id}}"
                )
            if tail == ["result"] and method == "GET":
                await self._get_result(writer, job_id)
                return
            if tail == ["events"] and method == "GET":
                await self._stream_events(
                    writer, job_id, headers, query
                )
                return
        raise _HttpError(404, f"no route for {method} {path}")

    # -- handlers ---------------------------------------------------------

    async def _post_job(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpError(400, f"body is not JSON: {error}") from None
        try:
            request = job_request_from_json(payload)
        except SchemaError as error:
            raise _HttpError(400, str(error)) from None
        try:
            job = await self.store.submit(request)
        except JobStoreFull as error:
            raise _HttpError(429, str(error)) from None
        await self.queue.put(job)
        self.metrics.set_queue_depth(self.queue.depth)
        await self._send_json(writer, 202, job.summary())

    async def _get_job(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        try:
            job = await self.store.get(job_id)
        except JobNotFound:
            raise _HttpError(404, f"no such job: {job_id}") from None
        await self._send_json(writer, 200, job.summary())

    async def _get_result(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        try:
            job = await self.store.get(job_id)
        except JobNotFound:
            raise _HttpError(404, f"no such job: {job_id}") from None
        if job.state != "completed" or job.result is None:
            raise _HttpError(
                409, f"job {job_id} is {job.state}; no result yet"
            )
        await self._send_json(writer, 200, job.result)

    async def _delete_job(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        try:
            job = await self.store.get(job_id)
        except JobNotFound:
            raise _HttpError(404, f"no such job: {job_id}") from None
        try:
            if job.state in TERMINAL_STATES:
                await self.store.delete(job_id)
                await self._send_json(
                    writer, 200, {"id": job_id, "deleted": True}
                )
            else:
                job = await self.store.cancel(job_id)
                await self.queue.remove(job_id)
                self.metrics.set_queue_depth(self.queue.depth)
                await self._send_json(writer, 202, job.summary())
        except JobStateError as error:
            raise _HttpError(409, str(error)) from None

    async def _stream_events(
        self,
        writer: asyncio.StreamWriter,
        job_id: str,
        headers: dict[str, str],
        query: dict[str, list[str]],
    ) -> None:
        try:
            await self.store.get(job_id)
        except JobNotFound:
            raise _HttpError(404, f"no such job: {job_id}") from None
        after = 0
        last_id = headers.get("last-event-id")
        if last_id is not None:
            try:
                after = int(last_id)
            except ValueError:
                raise _HttpError(
                    400, f"bad Last-Event-ID: {last_id!r}"
                ) from None
        if "after" in query:
            try:
                after = int(query["after"][-1])
            except ValueError:
                raise _HttpError(
                    400, f"bad after= value: {query['after'][-1]!r}"
                ) from None
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        async for event in self.store.subscribe(job_id, after):
            writer.write(
                format_event(event.event, event.data, id=event.id)
            )
            self.metrics.event_streamed()
            await writer.drain()
        writer.write(format_event("done", {}))
        self.metrics.event_streamed()
        await writer.drain()
