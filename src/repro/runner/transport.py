"""Chunk payload codec for the runner's result and checkpoint channels.

Every chunk a worker completes has to cross two boundaries: the
process boundary back to the coordinator, and (optionally) the spill
boundary into a checkpoint file.  Both crossings use one codec,
``pickle``:

1. The worker encodes its ``(values, telemetry)`` payload once, as one
   explicit ``pickle.dumps`` byte stream with a BLAKE2b digest
   (:func:`encode_chunk`).
2. The stream rides the executor's own result channel back to the
   coordinator.
3. The coordinator checks the digest, decodes (:func:`decode_payload`)
   and hands the same bytes to the checkpoint writer.

Values are therefore encoded exactly once per chunk, however many
boundaries they cross, and a digest mismatch is caught before any
value is used.

Nothing here creates shared memory.  :func:`leaked_segments` and
:func:`cleanup_segment` audit ``/dev/shm`` for ``rpr-*`` entries, the
segments of the retired ``shm`` codec; ``canonbench/run.py`` imports
both in every run.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass
from typing import Any

__all__ = [
    "CODEC",
    "EncodedChunk",
    "SEGMENT_PREFIX",
    "TransportError",
    "TransportEvent",
    "cleanup_segment",
    "decode_payload",
    "encode_chunk",
    "leaked_segments",
    "payload_digest",
]

#: The codec name recorded wherever a format carries one: checkpoint
#: chunk records, :class:`TransportEvent` and the
#: ``runner_chunk_bytes_total{codec}`` metric.
CODEC = "pickle"

#: Name prefix of the shared-memory segments the retired ``shm`` codec
#: created; :func:`leaked_segments` scans ``/dev/shm`` for it.
SEGMENT_PREFIX = "rpr-"

_SHM_DIR = "/dev/shm"
_DIGEST_BYTES = 16


class TransportError(RuntimeError):
    """A chunk payload failed its integrity check or could not be decoded."""


@dataclass(frozen=True)
class EncodedChunk:
    """One chunk payload, encoded by the worker.

    Attributes:
        payload: the pickle byte stream of ``(values, telemetry)``.
        digest: BLAKE2b hexdigest of ``payload`` (integrity check).
        encode_s: wall-clock seconds spent encoding.
    """

    payload: bytes
    digest: str
    encode_s: float

    @property
    def nbytes(self) -> int:
        """Length of the stream in bytes."""
        return len(self.payload)


@dataclass(frozen=True)
class TransportEvent:
    """One chunk payload's trip across the process boundary.

    Collected by the coordinator as it decodes chunk outcomes; feeds
    ``runner_chunk_bytes_total{codec}`` and
    ``runner_chunk_encode_seconds`` through
    :meth:`repro.obs.aggregate.TelemetryAggregate.record_transport`
    and the live :meth:`repro.obs.telemetry.Telemetry.on_chunk_transport`
    hook.
    """

    chunk_index: int
    codec: str
    nbytes: int
    encode_s: float
    decode_s: float


def payload_digest(raw: bytes | bytearray | memoryview) -> str:
    """BLAKE2b integrity digest of an encoded stream."""
    return hashlib.blake2b(raw, digest_size=_DIGEST_BYTES).hexdigest()


def encode_chunk(
    values: list[Any], telemetry: dict[str, Any] | None
) -> EncodedChunk:
    """Encode one chunk payload as a digested pickle stream."""
    start = time.perf_counter()
    raw = pickle.dumps((values, telemetry), protocol=pickle.HIGHEST_PROTOCOL)
    return EncodedChunk(
        payload=raw,
        digest=payload_digest(raw),
        encode_s=time.perf_counter() - start,
    )


def decode_payload(
    raw: bytes | bytearray,
) -> tuple[list[Any], dict[str, Any] | None]:
    """Decode a stream produced by :func:`encode_chunk`.

    Raises :class:`TransportError` when the stream does not unpickle to
    a ``(values, telemetry)`` pair (truncated or foreign bytes).
    """
    try:
        values, telemetry = pickle.loads(raw)
    except Exception as exc:  # noqa: BLE001 - any unpickling failure
        raise TransportError(
            f"chunk stream could not be decoded: {type(exc).__name__}: {exc}"
        ) from exc
    return values, telemetry


def cleanup_segment(name: str) -> bool:
    """Unlink the ``/dev/shm`` entry ``name`` if it exists; True if it did.

    Nothing in the runner creates segments any more.  This stays for
    ``canonbench/run.py``, which imports it in every run to remove what
    :func:`leaked_segments` reports.  Unlinking the file directly (not
    through ``multiprocessing.shared_memory``) needs no mapping, so an
    empty entry unlinks as well as a full one.
    """
    if "/" in name:
        raise ValueError(f"segment name must not contain '/': {name!r}")
    try:
        os.unlink(os.path.join(_SHM_DIR, name))
    except FileNotFoundError:
        return False
    return True


def leaked_segments(token: str | None = None) -> list[str]:
    """Names of live ``rpr-*`` segments (test/audit helper).

    Scans ``/dev/shm`` for :data:`SEGMENT_PREFIX` entries, optionally
    narrowed to names that continue with ``token`` and a dash.  Returns
    an empty list on platforms without a visible shm filesystem.
    ``canonbench/run.py`` imports this in every run; the tier-1 chaos
    tests use it to assert a pooled run leaves nothing behind.
    """
    prefix = SEGMENT_PREFIX if token is None else f"{SEGMENT_PREFIX}{token}-"
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(name for name in entries if name.startswith(prefix))
