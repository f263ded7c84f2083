"""Chunk results across process and spill boundaries, and no leaks.

A pooled worker's chunk outcome rides the executor's own result
pickle; the coordinator spills a completed chunk to the checkpoint as
one digested pickle stream.  The determinism contract requires both
crossings to be invisible in the results (bit-identical values for any
executor, worker count and chunk size), and ``/dev/shm`` to hold no
``rpr-*`` entry afterwards, even when workers crash or exit.
Checkpoints spilled by the retired ``shm`` codec must refuse to resume
instead of silently re-running their chunks.
"""

import base64
import json
import os
import pickle

import numpy as np
import pytest

from repro.runner import (
    CheckpointError,
    SweepError,
    SweepSpec,
    UnitContext,
    checkpoint_fingerprint,
    load_checkpoint,
    run_sweep,
    run_units,
)
from repro.runner.checkpoint import (
    CheckpointWriter,
    CompletedChunk,
    decode_payload,
    encode_payload,
    payload_digest,
)
from repro.runner.transport import cleanup_segment, leaked_segments
from repro.runner.workers import rng_probe

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the image
    HAVE_HYPOTHESIS = False

pytestmark = pytest.mark.runner


def units(n, seed=0):
    return [
        UnitContext(index=i, parameters={"x": i}, root_seed=seed)
        for i in range(n)
    ]


def canon(obj):
    """Canonical form for bitwise value comparison.

    ``pickle.dumps(a) == pickle.dumps(b)`` is too strict across a
    process boundary: the pickler memoizes *object identity*, so two
    structurally identical payloads serialize differently when one
    shares interned key strings and the other was rebuilt by a worker.
    Arrays compare by dtype/shape/raw bytes; floats by exact equality.
    """
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, dict):
        return {key: canon(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(value) for value in obj]
    return obj


def array_probe(ctx: UnitContext):
    """A unit whose payload is numpy-heavy."""
    rng = ctx.rng(0)
    return {
        "index": ctx.index,
        "draws": rng.random(64),
        "counts": rng.integers(0, 255, size=33, dtype=np.uint8),
        "scalar": float(rng.random()),
    }


def payload_values():
    rng = np.random.default_rng(7)
    return [
        {"a": rng.random(17), "b": [1, 2, 3], "c": None},
        {"a": rng.integers(0, 9, size=5), "empty": np.empty(0)},
        "plain string",
        42,
    ]


class TestCodecLayer:
    def test_pickle_roundtrip(self):
        values = payload_values()
        raw = encode_payload(values, {"k": 1})
        assert len(raw) > 0
        decoded, telemetry = decode_payload(raw)
        assert telemetry == {"k": 1}
        assert canon(decoded) == canon(values)

    def test_truncated_stream_raises(self):
        raw = encode_payload(payload_values(), None)
        with pytest.raises(ValueError):
            decode_payload(raw[: len(raw) // 2])
        with pytest.raises(ValueError):
            decode_payload(b"XXXX" + raw[4:])

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="no /dev/shm filesystem"
    )
    def test_cleanup_segment_is_idempotent(self):
        # An empty entry is what a worker killed between creating and
        # sizing a segment used to leave behind.
        token = f"cl3an{os.getpid()}"
        name = f"rpr-{token}-c0a0"
        assert cleanup_segment(name) is False  # never created
        open(os.path.join("/dev/shm", name), "wb").close()
        assert leaked_segments(token) == [name]
        assert cleanup_segment(name) is True
        assert cleanup_segment(name) is False  # already gone
        assert leaked_segments(token) == []
        with pytest.raises(ValueError):
            cleanup_segment("rpr-../x")


if HAVE_HYPOTHESIS:

    json_scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.floats(allow_nan=False),
        st.text(max_size=20),
    )

    arrays = st.builds(
        lambda seed, n: np.random.default_rng(seed).random(n),
        st.integers(0, 2**16),
        st.integers(0, 64),
    )

    payloads = st.lists(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(json_scalars, arrays),
            max_size=4,
        ),
        max_size=4,
    )

    @settings(max_examples=40, deadline=None)
    @given(values=payloads)
    def test_property_roundtrip(values):
        decoded, telemetry = decode_payload(encode_payload(values, None))
        assert telemetry is None
        assert canon(decoded) == canon(values)


class TestEngineTransport:
    @pytest.mark.parametrize("executor", ["process"])
    def test_pooled_values_match_serial(self, executor):
        serial = run_units(array_probe, units(6), seed=1)
        pooled = run_units(
            array_probe,
            units(6),
            seed=1,
            n_workers=2,
            executor=executor,
            chunk_size=2,
        )
        assert pooled.executor == executor
        assert canon(pooled.values) == canon(serial.values)
        assert leaked_segments() == []


class TestChaosNoLeaks:
    """Worker faults must not leave ``rpr-*`` entries in /dev/shm."""

    def test_crash_faults_leave_no_segments(self, chaos):
        baseline, chaotic = chaos.check_bit_identical(
            rng_probe,
            units(8),
            faults=chaos.faults(crash=(1, 5)),
            n_workers=2,
            executor="process",
            chunk_size=2,
        )
        assert "unit-error" in {e.reason for e in chaotic.retries}
        assert leaked_segments() == []

    def test_worker_exit_faults_leave_no_segments(self, chaos):
        # os._exit kills the worker mid-chunk; its result never reaches
        # the coordinator, which must retry the chunk elsewhere.
        baseline, chaotic = chaos.check_bit_identical(
            rng_probe,
            units(8),
            faults=chaos.faults(exit=(2,)),
            n_workers=2,
            executor="process",
            chunk_size=2,
        )
        assert "executor" in {e.reason for e in chaotic.retries}
        assert leaked_segments() == []


def write_records(path, records):
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in records)
    )


def header(seed, n_units, chunk_size, schema=2):
    return {
        "schema": schema,
        "kind": "header",
        "producer": "repro",
        "version": "0",
        "seed": seed,
        "n_units": n_units,
        "chunk_size": chunk_size,
        "fingerprint": checkpoint_fingerprint(seed, n_units, chunk_size),
    }


def chunk_record(index, raw, **fields):
    return {
        "kind": "chunk",
        "chunk": index,
        "first_index": 2 * index,
        "n_units": 2,
        "worker": 1,
        "busy_s": 0.0,
        "payload": base64.b64encode(raw).decode("ascii"),
        "digest": payload_digest(raw),
        **fields,
    }


class TestResume:
    def test_kill_and_resume_bit_identical(self, tmp_path, chaos):
        spec = SweepSpec(axes={"x": list(range(8))}, seed=5, chunk_size=2)
        clean = run_sweep(rng_probe, spec)
        path = tmp_path / "ckpt.jsonl"
        chaos.partial_checkpoint(rng_probe, spec, str(path), crash_unit=5)
        resumed = run_sweep(
            rng_probe,
            spec,
            checkpoint=str(path),
            resume=True,
            n_workers=2,
            executor="process",
        )
        assert resumed.resumed_chunks > 0
        assert canon(resumed.values) == canon(clean.values)
        assert leaked_segments() == []

    def test_checkpoint_round_trip(self, tmp_path):
        """A pooled run spills the worker's pickle bytes; they reload."""
        spec = SweepSpec(axes={"x": list(range(4))}, seed=2, chunk_size=2)
        path = tmp_path / "ckpt.jsonl"
        first = run_sweep(
            rng_probe,
            spec,
            checkpoint=str(path),
            n_workers=2,
            executor="process",
        )
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["codec"] for r in records[1:]] == ["pickle", "pickle"]
        loaded = load_checkpoint(str(path))
        assert all(c.payload_bytes > 0 for c in loaded.chunks.values())
        values = [
            v for _, c in sorted(loaded.chunks.items()) for v in c.values
        ]
        assert canon(values) == canon(first.values)

    def test_shm_records_refuse_to_resume(self, tmp_path):
        seed, n = 9, 4
        clean = run_units(rng_probe, units(n, seed), seed=seed, chunk_size=2)

        # A record spilled by the retired shm codec: intact and digested,
        # so it would otherwise be mistaken for nothing worse than torn.
        shm_path = tmp_path / "shm.jsonl"
        stream = b"RPC1" + bytes(60)
        write_records(
            shm_path,
            [
                header(seed, n, 2),
                chunk_record(
                    0, stream, schema=2, codec="shm",
                    payload_bytes=len(stream),
                ),
            ],
        )
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(shm_path)
        message = str(excinfo.value)
        assert str(shm_path) in message
        assert "chunk 0" in message and "'shm'" in message
        with pytest.raises(SweepError, match="'shm'"):
            run_units(
                rng_probe,
                units(n, seed),
                seed=seed,
                chunk_size=2,
                checkpoint=shm_path,
                resume=True,
            )

        # A schema-1 record (no codec field) and a schema-2 pickle
        # record written by this version still resume bit-identically.
        ok_path = tmp_path / "ok.jsonl"
        legacy = pickle.dumps((clean.values[:2], None))
        write_records(
            ok_path,
            [header(seed, n, 2, schema=1), chunk_record(0, legacy, schema=1)],
        )
        with CheckpointWriter(ok_path, {}) as writer:
            writer.record_chunk(
                CompletedChunk(1, 2, 2, 1, 0.0, clean.values[2:], None)
            )
        state = load_checkpoint(ok_path)
        assert state.skipped_lines == 0
        assert state.chunks[0].payload_bytes == 0
        assert state.chunks[1].payload_bytes > 0
        resumed = run_units(
            rng_probe,
            units(n, seed),
            seed=seed,
            chunk_size=2,
            checkpoint=ok_path,
            resume=True,
        )
        assert resumed.resumed_chunks == 2
        assert resumed.values == clean.values
