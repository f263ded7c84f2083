"""Trace spans: JSONL query/session records with sampling.

Each record is one JSON object per line (JSONL).  The documented schema
(see ``docs/observability.md``) is versioned through a ``schema`` field
on every record; the current version is :data:`TRACE_SCHEMA`.

Record kinds:

* ``header`` — written once per file: schema version plus the producing
  ``repro`` version, so a trace is self-describing.
* ``query`` — one query cycle: index, SSN, detection, per-subframe
  outcome summary, block-ACK bitmap, digests of the tag-state plan and
  the fading draw, cycle duration.  Records do not depend on how the
  engine chunks its queries: the same seed gives bitwise-identical
  ``query`` records.
* ``session`` — end-of-run totals (mirrors
  :class:`repro.core.session.SessionStats`) plus cumulative stage
  timings.  Summing the ``query`` records of an unsampled trace
  reproduces the ``session`` record exactly.
* ``retry`` — one engine fault-tolerance decision (see
  :class:`repro.runner.faults.RetryEvent`): which chunk failed, the
  attempt number, the failure reason, and what the scheduler did about
  it (retry, serial fallback, or terminal failure).
* ``transport`` — one chunk payload crossing the process boundary: the
  codec, encoded size, and encode/decode wall-clock.  Older versions
  wrote these; nothing writes them now, but they still validate so
  those traces keep loading.

Sampling (:class:`TraceSampler`) bounds trace cost on long runs:
``every_n`` keeps one query in N, ``head`` always keeps the first few,
and ``tail`` buffers the last few otherwise-dropped records in memory
and flushes them at session end.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping

__all__ = [
    "TRACE_SCHEMA",
    "TraceSampler",
    "TraceWriter",
    "fading_digest",
    "fading_rows_digest",
    "read_trace",
    "states_digest",
    "summarize_trace",
    "validate_trace_record",
]

#: Trace record schema version (the ``schema`` field of every record).
TRACE_SCHEMA = 1

_DIGEST_BYTES = 8


def fading_digest(direct_gain: complex, tag_fading: complex) -> str:
    """Short stable digest of one coherence-interval fading draw.

    Packs the four float64 components bit-exactly, so bitwise-identical
    fading values give the same digest.
    """
    payload = struct.pack(
        "<4d",
        direct_gain.real,
        direct_gain.imag,
        tag_fading.real,
        tag_fading.imag,
    )
    return hashlib.blake2b(payload, digest_size=_DIGEST_BYTES).hexdigest()


def fading_rows_digest(
    rows: Iterable[tuple[complex, complex]],
) -> str:
    """Digest of a sequence of ``(direct_gain, tag_fading)`` draws.

    Multi-tag queries sample one coherence-interval fading pair per
    responder; this packs every pair bit-exactly in responder order.
    For a single row it equals :func:`fading_digest` of that pair, so
    fleet ``query`` trace records degrade gracefully to the single-tag
    digest when only one tag responds.
    """
    payload = b"".join(
        struct.pack(
            "<4d",
            direct.real,
            direct.imag,
            tag.real,
            tag.imag,
        )
        for direct, tag in rows
    )
    return hashlib.blake2b(payload, digest_size=_DIGEST_BYTES).hexdigest()


def states_digest(states: Iterable[Any]) -> str:
    """Short stable digest of a per-subframe tag-state plan."""
    text = ",".join(getattr(s, "name", str(s)) for s in states)
    return hashlib.blake2b(
        text.encode("utf-8"), digest_size=_DIGEST_BYTES
    ).hexdigest()


@dataclass(frozen=True)
class TraceSampler:
    """Which query indices to trace.

    Attributes:
        every_n: keep query ``i`` when ``i % every_n == 0``; ``0``
            disables periodic sampling entirely (only head/tail kept).
        head: always keep the first ``head`` queries.
        tail: keep the last ``tail`` otherwise-dropped queries (they are
            buffered and flushed when the session record is emitted).
    """

    every_n: int = 1
    head: int = 0
    tail: int = 0

    def __post_init__(self) -> None:
        if self.every_n < 0 or self.head < 0 or self.tail < 0:
            raise ValueError("sampler knobs must be >= 0")

    def keep(self, index: int) -> bool:
        """Whether query ``index`` is sampled immediately."""
        if index < self.head:
            return True
        return self.every_n > 0 and index % self.every_n == 0


class TraceWriter:
    """Buffered JSONL writer.

    Serialized records accumulate in memory and are flushed every
    ``buffer_records`` writes (and on :meth:`flush`/:meth:`close`), so
    tracing a session-batch run costs one ``json.dumps`` per sampled
    record rather than one syscall per record.  A ``header`` record is
    written when the file is created (or when appending to an empty
    file), stamping the schema version and producing ``repro`` version.
    """

    def __init__(
        self,
        path: str,
        *,
        buffer_records: int = 256,
        append: bool = False,
    ) -> None:
        if buffer_records < 1:
            raise ValueError("buffer_records must be >= 1")
        self.path = path
        self.buffer_records = buffer_records
        self.records_written = 0
        self._buffer: list[str] = []
        self._closed = False
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        fresh = not append or not os.path.exists(path) or (
            os.path.getsize(path) == 0
        )
        self._handle = open(
            path, "a" if append else "w", encoding="utf-8"
        )
        if fresh:
            from .. import __version__

            self.write(
                {
                    "schema": TRACE_SCHEMA,
                    "kind": "header",
                    "producer": "repro",
                    "version": __version__,
                }
            )

    def write(self, record: Mapping[str, Any]) -> None:
        """Queue one record (must already carry ``schema`` and ``kind``)."""
        if self._closed:
            raise ValueError(f"trace writer for {self.path} is closed")
        self._buffer.append(json.dumps(record, separators=(",", ":")))
        self.records_written += 1
        if len(self._buffer) >= self.buffer_records:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            self._handle.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
        self._handle.flush()

    def close(self) -> None:
        if not self._closed:
            self.flush()
            self._handle.close()
            self._closed = True

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TailBuffer:
    """Ring buffer of the last N dropped records (tail sampling)."""

    def __init__(self, size: int) -> None:
        self._records: deque = deque(maxlen=size) if size > 0 else deque(
            maxlen=0
        )

    def push(self, record: Mapping[str, Any]) -> None:
        if self._records.maxlen:
            self._records.append(record)

    def drain(self) -> list[Mapping[str, Any]]:
        records = list(self._records)
        self._records.clear()
        return records


_QUERY_FIELDS = {
    "schema": int,
    "kind": str,
    "index": int,
    "ssn": int,
    "detected": bool,
    "bits_sent": int,
    "bit_errors": int,
    "subframes": int,
    "subframes_failed": int,
    "bitmap": str,
    "states_digest": str,
    "fading_digest": str,
    "cycle_s": float,
}

_SESSION_FIELDS = {
    "schema": int,
    "kind": str,
    "queries": int,
    "bits_sent": int,
    "bit_errors": int,
    "missed_triggers": int,
    "elapsed_s": float,
    "ber": float,
    "stage_timings": dict,
}

_HEADER_FIELDS = {
    "schema": int,
    "kind": str,
    "producer": str,
    "version": str,
}

_RETRY_FIELDS = {
    "schema": int,
    "kind": str,
    "chunk": int,
    "first_unit": int,
    "attempt": int,
    "reason": str,
    "action": str,
}

_TRANSPORT_FIELDS = {
    "schema": int,
    "kind": str,
    "chunk": int,
    "codec": str,
    "nbytes": int,
    "encode_s": float,
    "decode_s": float,
}


def validate_trace_record(record: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``record`` matches the trace schema."""
    if not isinstance(record, Mapping):
        raise ValueError(f"trace record must be an object, got {record!r}")
    if record.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"unsupported trace schema {record.get('schema')!r}"
        )
    kind = record.get("kind")
    fields = {
        "header": _HEADER_FIELDS,
        "query": _QUERY_FIELDS,
        "session": _SESSION_FIELDS,
        "retry": _RETRY_FIELDS,
        "transport": _TRANSPORT_FIELDS,
    }.get(kind)
    if fields is None:
        raise ValueError(f"unknown trace record kind {kind!r}")
    for name, expected in fields.items():
        if name not in record:
            raise ValueError(f"{kind} record missing field {name!r}")
        value = record[name]
        if expected is float:
            ok = isinstance(value, (int, float)) and not isinstance(
                value, bool
            )
        elif expected is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, expected)
        if not ok:
            raise ValueError(
                f"{kind} record field {name!r} has type "
                f"{type(value).__name__}, expected {expected.__name__}"
            )
    if kind == "query" and len(record["bitmap"]) != 16:
        raise ValueError("query bitmap must be 16 hex characters")


def read_trace(
    *paths: str, validate: bool = False
) -> Iterator[dict[str, Any]]:
    """Yield records from one or more JSONL trace files, in file order."""
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{path}:{line_number}: not valid JSON: {exc}"
                    ) from None
                if validate:
                    try:
                        validate_trace_record(record)
                    except ValueError as exc:
                        raise ValueError(
                            f"{path}:{line_number}: {exc}"
                        ) from None
                yield record


def summarize_trace(*paths: str) -> dict[str, Any]:
    """Aggregate a trace: record counts plus query/session totals."""
    kinds: dict[str, int] = {}
    queries = 0
    bits = 0
    errors = 0
    subframes = 0
    subframes_failed = 0
    missed = 0
    versions: list[str] = []
    sessions: list[dict[str, Any]] = []
    retries: dict[str, int] = {}
    for record in read_trace(*paths, validate=True):
        kind = record["kind"]
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "header":
            if record["version"] not in versions:
                versions.append(record["version"])
        elif kind == "query":
            queries += 1
            bits += record["bits_sent"]
            errors += record["bit_errors"]
            subframes += record["subframes"]
            subframes_failed += record["subframes_failed"]
            if not record["detected"]:
                missed += 1
        elif kind == "session":
            sessions.append(
                {
                    key: record[key]
                    for key in (
                        "queries",
                        "bits_sent",
                        "bit_errors",
                        "missed_triggers",
                        "elapsed_s",
                        "ber",
                    )
                }
            )
        elif kind == "retry":
            retries[record["reason"]] = (
                retries.get(record["reason"], 0) + 1
            )
    return {
        "records": kinds,
        "versions": versions,
        "queries": {
            "count": queries,
            "bits_sent": bits,
            "bit_errors": errors,
            "ber": errors / bits if bits else 0.0,
            "subframes": subframes,
            "subframes_failed": subframes_failed,
            "missed_triggers": missed,
        },
        "sessions": sessions,
        "retries": retries,
    }
