"""Chunk-granular checkpoint/resume for the parallel engine.

A long sweep should never lose finished work to a crash.  The engine
spills every completed chunk — its values, worker attribution, busy
time and telemetry snapshot — to an append-only JSONL checkpoint file,
and a restarted run loads the file, skips the chunks it already holds,
and executes only the remainder.  Because each chunk's values are a
pure function of its units' :class:`~repro.runner.engine.UnitContext`
substreams, a resumed run's :class:`~repro.runner.engine.SweepResult`
is bit-identical to an uninterrupted one.

File format (one JSON object per line):

* ``header`` — schema version, producing ``repro`` version, and the
  run *fingerprint*: a digest of ``(seed, n_units, chunk_size)``.  The
  fingerprint guards resumes: a checkpoint written for a different
  seed, grid, or chunking refuses to resume rather than silently
  mixing results.
* ``chunk`` — one completed chunk: its index, unit span, worker pid,
  busy seconds, and a base64 pickle stream of ``(values,
  telemetry_snapshot)`` guarded by a BLAKE2b digest, both computed by
  the coordinator when it spills the chunk.  Schema 2 records carry
  ``"codec": "pickle"`` and the stream's ``payload_bytes``; schema 1
  records, plain base64 pickles, still load.  A record of the retired
  ``shm`` codec raises :class:`CheckpointError` rather than being
  skipped, so its chunks never re-run silently.  Values are pickled
  (not JSON) because work functions return arbitrary Python objects
  (``SessionStats``, numpy scalars, dataclasses) and resume must
  reproduce them bit-identically.

Torn writes — a run killed mid-line — are expected: loading skips any
line that fails to parse or whose payload digest mismatches, so a
checkpoint survives the very crashes it exists for.  Chunks re-recorded
after a partial retry simply overwrite on load (last record wins).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from typing import Any

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "CheckpointState",
    "CheckpointWriter",
    "CompletedChunk",
    "checkpoint_fingerprint",
    "load_checkpoint",
]

#: Checkpoint record schema version (the ``schema`` field of each line).
#: Schema 2 added the per-chunk ``codec`` and ``payload_bytes`` fields;
#: schema-1 files (implicit pickle codec) remain loadable.
CHECKPOINT_SCHEMA = 2

#: Schemas :func:`load_checkpoint` accepts.
_COMPATIBLE_SCHEMAS = (1, 2)

#: The codec named in every schema-2 chunk record.
CODEC = "pickle"

_DIGEST_BYTES = 16


class CheckpointError(RuntimeError):
    """A checkpoint file cannot be used (mismatched run or bad header)."""


def checkpoint_fingerprint(
    seed: int, n_units: int, chunk_size: int
) -> str:
    """Digest identifying the run shape a checkpoint belongs to.

    Covers exactly the knobs that decide chunk boundaries and unit
    seeding; a resume with any of them changed is a different run and
    must be refused.  Worker count and executor choice are deliberately
    absent — they cannot affect results, so a sweep interrupted on 8
    workers may resume on 2 (or serially).
    """
    payload = f"{seed}:{n_units}:{chunk_size}".encode("utf-8")
    return hashlib.blake2b(payload, digest_size=_DIGEST_BYTES).hexdigest()


@dataclass(frozen=True)
class CompletedChunk:
    """One chunk restored from (or recorded to) a checkpoint.

    ``payload_bytes`` is the spilled stream's encoded size (schema-1
    records load with ``payload_bytes=0``).
    """

    chunk_index: int
    first_index: int
    n_units: int
    worker: int
    busy_s: float
    values: list[Any]
    telemetry: dict[str, Any] | None
    payload_bytes: int = 0


@dataclass(frozen=True)
class CheckpointState:
    """A loaded checkpoint: header metadata plus completed chunks."""

    meta: dict[str, Any]
    chunks: dict[int, CompletedChunk]
    skipped_lines: int

    def fingerprint(self) -> str:
        return str(self.meta.get("fingerprint", ""))


def payload_digest(raw: bytes) -> str:
    """BLAKE2b digest a chunk record stores beside its stream."""
    return hashlib.blake2b(raw, digest_size=_DIGEST_BYTES).hexdigest()


def encode_payload(
    values: list[Any], telemetry: dict[str, Any] | None
) -> bytes:
    """One chunk's ``(values, telemetry)`` as the stream a record spills."""
    return pickle.dumps((values, telemetry), protocol=pickle.HIGHEST_PROTOCOL)


def decode_payload(raw: bytes) -> tuple[list[Any], dict[str, Any] | None]:
    """Decode a stream from :func:`encode_payload`.

    Raises :class:`ValueError` when the stream does not unpickle to a
    ``(values, telemetry)`` pair (truncated or foreign bytes).
    """
    try:
        values, telemetry = pickle.loads(raw)
    except Exception as exc:  # noqa: BLE001 - any unpickling failure
        raise ValueError(
            f"chunk stream could not be decoded: {type(exc).__name__}: {exc}"
        ) from exc
    return values, telemetry


def _decode_record_payload(
    encoded: str, digest: str
) -> tuple[list[Any], dict[str, Any] | None]:
    raw = base64.b64decode(encoded.encode("ascii"), validate=True)
    if payload_digest(raw) != digest:
        raise ValueError("chunk payload digest mismatch")
    return decode_payload(raw)


class CheckpointWriter:
    """Append-only JSONL writer for completed chunks.

    Each :meth:`record_chunk` writes one line and flushes, so a run
    killed between chunks loses at most the line being written — which
    :func:`load_checkpoint` then skips as torn.
    """

    def __init__(self, path: str | os.PathLike, meta: dict[str, Any]) -> None:
        self.path = os.fspath(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        fresh = (
            not os.path.exists(self.path)
            or os.path.getsize(self.path) == 0
        )
        torn_tail = False
        if not fresh:
            with open(self.path, "rb") as peek:
                peek.seek(-1, os.SEEK_END)
                torn_tail = peek.read(1) != b"\n"
        self._handle = open(self.path, "a", encoding="utf-8")
        if torn_tail:
            # The previous run died mid-line; start on a fresh line so
            # the next record is not glued onto the torn one (the torn
            # fragment itself stays and is skipped on load).
            self._handle.write("\n")
            self._handle.flush()
        self.records_written = 0
        if fresh:
            from .. import __version__

            self._write_line(
                {
                    "schema": CHECKPOINT_SCHEMA,
                    "kind": "header",
                    "producer": "repro",
                    "version": __version__,
                    **meta,
                }
            )

    def _write_line(self, record: dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._handle.flush()
        self.records_written += 1

    def record_chunk(self, chunk: CompletedChunk) -> None:
        """Persist one completed chunk (values + telemetry snapshot).

        The stream and its digest are computed here, once per spilled
        chunk.
        """
        encoded = encode_payload(chunk.values, chunk.telemetry)
        self._write_line(
            {
                "schema": CHECKPOINT_SCHEMA,
                "kind": "chunk",
                "chunk": chunk.chunk_index,
                "first_index": chunk.first_index,
                "n_units": chunk.n_units,
                "worker": chunk.worker,
                "busy_s": chunk.busy_s,
                "codec": CODEC,
                "payload_bytes": len(encoded),
                "payload": base64.b64encode(encoded).decode("ascii"),
                "digest": payload_digest(encoded),
            }
        )

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_checkpoint(path: str | os.PathLike) -> CheckpointState:
    """Read a checkpoint file, skipping torn or corrupt lines.

    Raises :class:`CheckpointError` when the file's first intact record
    is not a compatible header (wrong schema, or not a checkpoint file
    at all), or when a chunk record names a codec other than
    ``"pickle"`` (the retired ``shm`` codec); individual bad chunk
    lines are counted in ``skipped_lines`` and otherwise ignored.
    """
    path = os.fspath(path)
    meta: dict[str, Any] | None = None
    chunks: dict[int, CompletedChunk] = {}
    skipped = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(record, dict):
                skipped += 1
                continue
            kind = record.get("kind")
            if kind == "header":
                if record.get("schema") not in _COMPATIBLE_SCHEMAS:
                    raise CheckpointError(
                        f"{path}: unsupported checkpoint schema "
                        f"{record.get('schema')!r}"
                    )
                if meta is None:
                    meta = record
                continue
            if kind != "chunk":
                skipped += 1
                continue
            codec = record.get("codec", CODEC)
            if codec != CODEC:
                raise CheckpointError(
                    f"{path}: chunk {record.get('chunk')!r} was spilled "
                    f"with the retired {codec!r} codec, which this "
                    f"version cannot read; delete the checkpoint (or run "
                    f"without resume) to start over"
                )
            try:
                values, telemetry = _decode_record_payload(
                    record["payload"], record["digest"]
                )
                chunk = CompletedChunk(
                    chunk_index=int(record["chunk"]),
                    first_index=int(record["first_index"]),
                    n_units=int(record["n_units"]),
                    worker=int(record["worker"]),
                    busy_s=float(record["busy_s"]),
                    values=values,
                    telemetry=telemetry,
                    payload_bytes=int(record.get("payload_bytes", 0)),
                )
            except (KeyError, ValueError, TypeError):
                skipped += 1
                continue
            if len(chunk.values) != chunk.n_units:
                skipped += 1
                continue
            chunks[chunk.chunk_index] = chunk
    if meta is None:
        raise CheckpointError(f"{path}: no intact checkpoint header")
    return CheckpointState(meta=meta, chunks=chunks, skipped_lines=skipped)
