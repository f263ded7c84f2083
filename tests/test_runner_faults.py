"""Fault tolerance: injection, retry/timeout/backoff, checkpoint/resume.

The engine's determinism contract must survive adversity: a retried,
resumed, or serial-fallback run has to produce bit-identical
``SweepResult`` payloads and chunk-ordered telemetry merges.  This
suite injects deterministic crashes, hangs and worker exits by wrapping
the work function (``tests/faults.py``) and asserts exactly that, plus
the checkpoint file format's resilience to torn writes and the
per-chunk settling of pooled rounds.

Fast cases run in tier-1; hang-timeout cases are marked ``slow`` and
run in the CI chaos job (``pytest -m faults``).
"""

import copy
import dataclasses
import json
import multiprocessing
import os
import random
import signal
import threading
import time

import pytest

from repro.runner import (
    CheckpointError,
    RetryEvent,
    RetryPolicy,
    SweepError,
    SweepSpec,
    TelemetrySpec,
    UnitContext,
    WorkUnitError,
    checkpoint_fingerprint,
    load_checkpoint,
    run_sessions,
    run_sweep,
    run_units,
)
from repro.runner.checkpoint import CheckpointWriter, CompletedChunk
from repro.runner.workers import SessionSpec, rng_probe
from tests.faults import FaultSpec, FaultyWork, InjectedFault

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the image
    HAVE_HYPOTHESIS = False

pytestmark = [pytest.mark.runner, pytest.mark.faults]


def units(n, seed=0):
    return [
        UnitContext(index=i, parameters={"x": i}, root_seed=seed)
        for i in range(n)
    ]


def probe_with_log(ctx: UnitContext):
    """rng_probe plus an execution log (proves which units re-ran)."""
    log = ctx.parameters.get("log")
    if log:
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{ctx.index}\n")
    return rng_probe(ctx)


def slow_logged_unit(ctx: UnitContext):
    """Log the unit's start, then take a tenth of a second."""
    with open(ctx.parameters["log"], "a", encoding="utf-8") as handle:
        handle.write(f"{ctx.index}\n")
    time.sleep(0.1)
    return ctx.index


def must_not_run(ctx: UnitContext):
    raise AssertionError(
        f"unit {ctx.index} executed despite a complete checkpoint"
    )


def metric_probe(ctx: UnitContext):
    """Deterministic metric traffic: one counter tick per unit."""
    from repro.obs.runtime import active

    live = active()
    if live is not None and live.metrics_enabled:
        live.registry.counter("test_units_total", "units executed").inc()
    return ctx.index


def executed_units(log_path) -> list[int]:
    if not os.path.exists(log_path):
        return []
    with open(log_path, encoding="utf-8") as handle:
        return [int(line) for line in handle if line.strip()]


def sigterm_is_default(ctx: UnitContext) -> bool:
    """Whether this unit runs with SIGTERM's default action."""
    return signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


@pytest.fixture
def sigterm_raises():
    """SIGTERM raises KeyboardInterrupt, as ``repro serve`` sets it."""
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    yield
    signal.signal(signal.SIGTERM, previous)


class TestFaultSpec:
    def test_seeded_is_deterministic(self):
        a = FaultSpec.seeded(7, 100, crash_rate=0.2, hang_rate=0.1)
        b = FaultSpec.seeded(7, 100, crash_rate=0.2, hang_rate=0.1)
        assert a.crash == b.crash and a.hang == b.hang
        assert a.crash  # 20% of 100 units: essentially always non-empty
        c = FaultSpec.seeded(8, 100, crash_rate=0.2, hang_rate=0.1)
        assert c.crash != a.crash

    def test_seeded_rate_extremes(self):
        none = FaultSpec.seeded(0, 50)
        assert none.faulty_units == ()
        everything = FaultSpec.seeded(0, 5, crash_rate=1.0)
        assert everything.crash == (0, 1, 2, 3, 4)

    def test_seeded_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="rates"):
            FaultSpec.seeded(0, 5, crash_rate=1.5)

    def test_action_priority_and_budget(self):
        spec = FaultSpec(crash=(1,), exit=(1,), failures=2)
        assert spec.action(1, 0) == "exit"  # most disruptive wins
        assert spec.action(1, 1) == "exit"
        assert spec.action(1, 2) is None  # budget exhausted: runs clean
        assert spec.action(0, 0) is None

    def test_exit_downgrades_in_coordinator(self, tmp_path):
        work = FaultyWork(rng_probe, FaultSpec(exit=(0,)), str(tmp_path))
        with pytest.raises(InjectedFault, match="downgrades to crash"):
            work(units(1)[0])

    def test_validation(self):
        with pytest.raises(ValueError, match="failures"):
            FaultSpec(failures=-1)
        with pytest.raises(ValueError, match="hang_s"):
            FaultSpec(hang_s=-0.1)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="timeout_s"):
            RetryPolicy(timeout_s=0)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff_s=-1)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="breaker"):
            RetryPolicy(breaker_failures=0)

    def test_backoff_schedule_without_jitter(self):
        policy = RetryPolicy(
            backoff_s=0.1, backoff_factor=2.0, backoff_max_s=0.3,
            jitter=0.0,
        )
        assert policy.backoff_delay(1) == pytest.approx(0.1)
        assert policy.backoff_delay(2) == pytest.approx(0.2)
        assert policy.backoff_delay(3) == pytest.approx(0.3)  # capped
        assert policy.backoff_delay(9) == pytest.approx(0.3)

    def test_backoff_jitter_is_deterministic(self):
        policy = RetryPolicy(backoff_s=0.1, jitter=0.5)
        a = policy.backoff_delay(1, seed=3, chunk_index=2)
        b = policy.backoff_delay(1, seed=3, chunk_index=2)
        assert a == b
        assert 0.1 <= a <= 0.15
        other = policy.backoff_delay(1, seed=3, chunk_index=4)
        assert other != a  # different substream

    def test_backoff_rejects_zeroth_attempt(self):
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy().backoff_delay(0)

    def test_zero_backoff_is_free(self):
        assert RetryPolicy().backoff_delay(5) == 0.0


class TestSerialRetries:
    def test_crash_retried_bit_identical(self, chaos):
        baseline, chaotic = chaos.check_bit_identical(
            rng_probe,
            units(10),
            faults=chaos.faults(crash=(1, 7)),
            chunk_size=2,
        )
        assert baseline.retries == ()
        assert chaotic.retry_summary() == {"unit-error": 2}
        events = chaotic.retries
        assert all(isinstance(e, RetryEvent) for e in events)
        assert {e.action for e in events} == {"retry"}
        assert sorted(e.first_unit for e in events) == [0, 6]

    def test_seeded_chaos_bit_identical(self, chaos):
        faults = chaos.seeded(
            11, 20, crash_rate=0.2, exit_rate=0.2
        )
        assert faults.faulty_units  # the draw actually hit something
        # Attempts count per unit, so a chunk holding k faulty units
        # needs k + 1 attempts: 4 cover any plan at chunk size 3.
        chaos.check_bit_identical(
            rng_probe,
            units(20),
            faults=faults,
            retry=RetryPolicy(max_attempts=4),
            chunk_size=3,
        )

    def test_budget_exhaustion_raises_with_context(self, chaos):
        with pytest.raises(WorkUnitError) as excinfo:
            chaos.run(
                rng_probe,
                units(6),
                faults=chaos.faults(crash=(3,), failures=99),
                retry=RetryPolicy(max_attempts=2),
                chunk_size=2,
            )
        error = excinfo.value
        assert error.index == 3
        assert error.attempts == 2
        assert error.chunk_index == 1
        assert "after 2 attempt(s)" in str(error)
        assert any(e.action == "failed" for e in error.retries)

    def test_faults_without_retry_fail_fast(self, chaos):
        with pytest.raises(WorkUnitError) as excinfo:
            chaos.run(
                rng_probe,
                units(4),
                faults=chaos.faults(crash=(2,)),
                retry=None,
            )
        assert excinfo.value.attempts == 1

    def test_backoff_sleeps_between_attempts(self, chaos):
        _, chaotic = chaos.check_bit_identical(
            rng_probe,
            units(4),
            faults=chaos.faults(crash=(0,)),
            retry=RetryPolicy(
                max_attempts=2, backoff_s=0.02, jitter=0.0
            ),
            chunk_size=4,
        )
        assert chaotic.wall_s >= 0.02

    def test_clean_run_reports_no_retries(self):
        result = run_units(
            rng_probe, units(5), retry=RetryPolicy(), chunk_size=2
        )
        assert result.retries == ()
        assert result.retry_summary() == {}
        assert result.resumed_chunks == 0


class TestProcessRetries:
    def test_worker_crash_retried_bit_identical(self, chaos):
        _, chaotic = chaos.check_bit_identical(
            rng_probe,
            units(8),
            faults=chaos.faults(crash=(2, 5)),
            chunk_size=2,
            n_workers=2,
            executor="process",
        )
        assert chaotic.retry_summary() == {"unit-error": 2}
        assert chaotic.executor == "process"

    def test_worker_exit_trips_breaker_to_serial(self, chaos):
        baseline = run_units(rng_probe, units(6), chunk_size=2)
        chaotic = chaos.run(
            rng_probe,
            units(6),
            faults=chaos.faults(exit=(3,)),
            retry=RetryPolicy(max_attempts=3, breaker_failures=1),
            chunk_size=2,
            n_workers=2,
            executor="process",
        )
        assert chaotic.values == baseline.values
        assert chaotic.executor == "serial"  # circuit breaker fell back
        actions = {e.action for e in chaotic.retries}
        assert "serial-fallback" in actions
        assert any(e.reason == "executor" for e in chaotic.retries)

    def test_strict_mode_still_raises_sweep_error(self):
        def closure(ctx):  # unpicklable on purpose
            return ctx.index

        with pytest.raises(SweepError, match="executor failed"):
            run_units(closure, units(4), n_workers=2, executor="process")

    def test_tolerant_mode_survives_unpicklable_via_fallback(self):
        def closure(ctx):  # unpicklable: every pool round breaks
            return ctx.index * 3

        result = run_units(
            closure,
            units(4),
            n_workers=2,
            executor="process",
            retry=RetryPolicy(breaker_failures=1),
        )
        assert result.values == [0, 3, 6, 9]
        assert result.executor == "serial"



class TestCoordinatorSigtermHandler:
    """A broken pool ends its surviving workers with SIGTERM.

    That must kill them even when the coordinating process routes
    SIGTERM to KeyboardInterrupt, as ``repro serve`` does: a worker
    that caught it would go on pulling chunks from a dead pool.
    """

    def test_pool_workers_take_default_sigterm(self, sigterm_raises):
        result = run_units(
            sigterm_is_default,
            units(4),
            chunk_size=1,
            n_workers=2,
            executor="process",
        )
        assert result.executor == "process"
        assert result.values == [True] * 4
        assert multiprocessing.active_children() == []

    def test_worker_exit_off_main_thread_bit_identical(
        self, sigterm_raises, chaos
    ):
        # A served job runs the engine on a job thread.  Bound the run
        # so a survivor the pool cannot end fails the test instead of
        # stalling it.
        baseline = run_units(rng_probe, units(8), chunk_size=2)
        outcome = {}

        def job():
            try:
                outcome["result"] = chaos.run(
                    rng_probe,
                    units(8),
                    faults=chaos.faults(exit=(2,)),
                    chunk_size=2,
                    n_workers=2,
                    executor="process",
                )
            except BaseException as exc:  # surfaced below
                outcome["error"] = exc

        thread = threading.Thread(target=job, daemon=True)
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "pooled run still going after 60 s"
        assert "error" not in outcome, outcome.get("error")
        chaotic = outcome["result"]
        assert chaotic.values == baseline.values
        assert "executor" in {e.reason for e in chaotic.retries}
        assert multiprocessing.active_children() == []


class TestPerChunkSettling:
    """A pooled round settles each chunk as it finishes."""

    def test_observer_raise_stops_the_round(self, tmp_path):
        log = tmp_path / "starts.log"
        work = [
            UnitContext(index=i, parameters={"log": str(log)}, root_seed=0)
            for i in range(32)
        ]
        reports = []

        def stop(progress):
            reports.append(progress)
            raise RuntimeError("stop at the first report")

        with pytest.raises(RuntimeError, match="first report"):
            run_units(
                slow_logged_unit,
                work,
                chunk_size=1,
                n_workers=2,
                executor="process",
                on_chunk=stop,
            )
        assert len(reports) == 1
        # Chunks not yet started were cancelled; only the few already
        # handed to the two workers ran on.
        assert len(executed_units(log)) < 16
        assert multiprocessing.active_children() == []


@pytest.mark.slow
class TestChunkTimeouts:
    def test_hang_cut_off_and_retried_serial(self, chaos):
        _, chaotic = chaos.check_bit_identical(
            rng_probe,
            units(6),
            faults=chaos.faults(hang=(2,), hang_s=0.5),
            retry=RetryPolicy(max_attempts=3, timeout_s=0.1),
            chunk_size=2,
        )
        assert chaotic.retry_summary() == {"timeout": 1}
        event = chaotic.retries[0]
        assert event.reason == "timeout"
        assert event.first_unit == 2

    def test_hang_cut_off_in_worker_process(self, chaos):
        _, chaotic = chaos.check_bit_identical(
            rng_probe,
            units(6),
            faults=chaos.faults(hang=(4,), hang_s=0.5),
            retry=RetryPolicy(max_attempts=3, timeout_s=0.1),
            chunk_size=2,
            n_workers=2,
            executor="process",
        )
        assert chaotic.retry_summary() == {"timeout": 1}

    def test_permanent_hang_exhausts_budget(self, chaos):
        with pytest.raises(WorkUnitError) as excinfo:
            chaos.run(
                rng_probe,
                units(2),
                faults=chaos.faults(
                    hang=(1,), hang_s=0.5, failures=99
                ),
                retry=RetryPolicy(max_attempts=2, timeout_s=0.05),
                chunk_size=1,
            )
        assert "deadline" in excinfo.value.cause


class TestCheckpointFile:
    def test_fingerprint_covers_run_shape(self):
        base = checkpoint_fingerprint(0, 10, 2)
        assert checkpoint_fingerprint(0, 10, 2) == base
        assert checkpoint_fingerprint(1, 10, 2) != base
        assert checkpoint_fingerprint(0, 11, 2) != base
        assert checkpoint_fingerprint(0, 10, 3) != base

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.ckpt.jsonl"
        chunk = CompletedChunk(
            chunk_index=1,
            first_index=2,
            n_units=2,
            worker=1234,
            busy_s=0.5,
            values=[{"a": 1}, {"a": 2}],
            telemetry={"metrics": None, "stage": {}},
        )
        with CheckpointWriter(path, {"fingerprint": "f" * 32}) as writer:
            writer.record_chunk(chunk)
        state = load_checkpoint(path)
        assert state.fingerprint() == "f" * 32
        assert state.skipped_lines == 0
        loaded = state.chunks[1]
        assert loaded.payload_bytes > 0
        assert loaded == dataclasses.replace(
            chunk, payload_bytes=loaded.payload_bytes
        )

    def test_torn_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "run.ckpt.jsonl"
        with CheckpointWriter(path, {"fingerprint": "a"}) as writer:
            writer.record_chunk(
                CompletedChunk(0, 0, 1, 1, 0.0, [42], None)
            )
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "kind": "chunk", "chu')  # torn
        state = load_checkpoint(path)
        assert state.chunks[0].values == [42]
        assert state.skipped_lines == 1

    def test_corrupted_payload_digest_is_skipped(self, tmp_path):
        path = tmp_path / "run.ckpt.jsonl"
        with CheckpointWriter(path, {"fingerprint": "a"}) as writer:
            writer.record_chunk(
                CompletedChunk(0, 0, 1, 1, 0.0, [42], None)
            )
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["digest"] = "0" * 32  # flipped bits
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        state = load_checkpoint(path)
        assert state.chunks == {}
        assert state.skipped_lines == 1

    def test_last_record_wins(self, tmp_path):
        path = tmp_path / "run.ckpt.jsonl"
        with CheckpointWriter(path, {"fingerprint": "a"}) as writer:
            writer.record_chunk(
                CompletedChunk(0, 0, 1, 1, 0.0, ["old"], None)
            )
            writer.record_chunk(
                CompletedChunk(0, 0, 1, 1, 0.0, ["new"], None)
            )
        assert load_checkpoint(path).chunks[0].values == ["new"]

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "chunk"}\n')
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(path)

    def test_unsupported_schema_raises(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"kind": "header", "schema": 99}\n')
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(path)


class TestCheckpointResume:
    def test_complete_checkpoint_skips_every_chunk(self, tmp_path):
        ck = tmp_path / "sweep.ckpt.jsonl"
        spec = SweepSpec(axes={"x": list(range(9))}, seed=3, chunk_size=2)
        first = run_sweep(rng_probe, spec, checkpoint=ck)
        # must_not_run raises on any execution: resume proves no re-run
        resumed = run_sweep(must_not_run, spec, checkpoint=ck)
        assert resumed.values == first.values
        assert resumed.resumed_chunks == 5
        assert resumed.points == first.points

    def test_interrupted_run_resumes_missing_chunks_only(
        self, tmp_path, chaos
    ):
        log_a, log_b = tmp_path / "a.log", tmp_path / "b.log"
        ck = tmp_path / "sweep.ckpt.jsonl"
        mk_units = lambda log: [  # noqa: E731 - tiny test helper
            UnitContext(
                index=i, parameters={"x": i, "log": str(log)}, root_seed=5
            )
            for i in range(8)
        ]
        # "Interrupt": unit 5 (chunk 2) keeps failing with no tolerance.
        with pytest.raises(WorkUnitError):
            chaos.run(
                probe_with_log,
                mk_units(log_a),
                faults=chaos.faults(crash=(5,), failures=99),
                retry=None,
                seed=5,
                chunk_size=2,
                checkpoint=ck,
            )
        done_before = set(load_checkpoint(ck).chunks)
        assert 2 not in done_before and done_before  # partial spill
        # Resume without the fault: only missing chunks execute.
        result = run_units(
            probe_with_log,
            mk_units(log_b),
            seed=5,
            chunk_size=2,
            checkpoint=ck,
        )
        baseline = run_units(rng_probe, units(8, seed=5), chunk_size=2)
        assert result.values == baseline.values
        assert result.resumed_chunks == len(done_before)
        rerun = set(executed_units(log_b))
        first_run = set(executed_units(log_a))
        assert rerun.isdisjoint(
            {i for c in done_before for i in (2 * c, 2 * c + 1)}
        )
        assert rerun | first_run >= set(range(8)) - {5}

    def test_resume_with_different_worker_count(self, tmp_path):
        ck = tmp_path / "sweep.ckpt.jsonl"
        spec = SweepSpec(axes={"x": list(range(8))}, seed=2, chunk_size=2)
        parallel = run_sweep(
            rng_probe, spec, n_workers=2, executor="process",
            checkpoint=ck,
        )
        resumed = run_sweep(must_not_run, spec, n_workers=1, checkpoint=ck)
        assert resumed.values == parallel.values
        assert resumed.resumed_chunks == 4

    def test_fingerprint_mismatch_refuses(self, tmp_path):
        ck = tmp_path / "sweep.ckpt.jsonl"
        spec = SweepSpec(axes={"x": [1, 2, 3, 4]}, seed=0, chunk_size=2)
        run_sweep(rng_probe, spec, checkpoint=ck)
        reseeded = SweepSpec(axes={"x": [1, 2, 3, 4]}, seed=1, chunk_size=2)
        with pytest.raises(SweepError, match="different run"):
            run_sweep(rng_probe, reseeded, checkpoint=ck)
        rechunked = SweepSpec(axes={"x": [1, 2, 3, 4]}, seed=0, chunk_size=4)
        with pytest.raises(SweepError, match="different run"):
            run_sweep(rng_probe, rechunked, checkpoint=ck)

    def test_resume_false_starts_fresh(self, tmp_path):
        ck = tmp_path / "sweep.ckpt.jsonl"
        spec = SweepSpec(axes={"x": [1, 2, 3, 4]}, seed=0, chunk_size=2)
        run_sweep(rng_probe, spec, checkpoint=ck)
        result = run_sweep(rng_probe, spec, checkpoint=ck, resume=False)
        assert result.resumed_chunks == 0
        assert len(load_checkpoint(ck).chunks) == 2

    def test_checkpointed_faulty_run_equals_clean(self, tmp_path, chaos):
        ck = tmp_path / "sweep.ckpt.jsonl"
        baseline, chaotic = chaos.check_bit_identical(
            rng_probe,
            units(10, seed=4),
            faults=chaos.faults(crash=(3, 8)),
            seed=4,
            chunk_size=2,
            checkpoint=ck,
        )
        assert len(load_checkpoint(ck).chunks) == 5

    def test_run_sessions_checkpoint_resume(self, tmp_path):
        ck = tmp_path / "sessions.ckpt.jsonl"
        build = SessionSpec(distance_m=3.0)
        first = run_sessions(
            build, 4, queries=2, seed=1, chunk_size=2, checkpoint=ck
        )
        resumed = run_sessions(
            build, 4, queries=2, seed=1, chunk_size=2, checkpoint=ck
        )
        assert resumed.resumed_chunks == 2
        assert [s.ber for s in resumed.values] == [
            s.ber for s in first.values
        ]
        assert [s.queries for s in resumed.values] == [
            s.queries for s in first.values
        ]


def _truncated_resume_case(tmp_path, n_units, chunk_size, keep, torn):
    """Shared body for the property tests: kill, maybe tear, resume."""
    ck = os.path.join(tmp_path, f"u{n_units}c{chunk_size}k{keep}.jsonl")
    mk = lambda: units(n_units, seed=9)  # noqa: E731 - tiny test helper
    baseline = run_units(rng_probe, mk(), seed=9, chunk_size=chunk_size)
    run_units(
        rng_probe, mk(), seed=9, chunk_size=chunk_size, checkpoint=ck
    )
    with open(ck, encoding="utf-8") as handle:
        lines = handle.readlines()
    header, chunk_lines = lines[0], lines[1:]
    kept = chunk_lines[: min(keep, len(chunk_lines))]
    with open(ck, "w", encoding="utf-8") as handle:
        handle.write(header)
        handle.writelines(kept)
        if torn and keep < len(chunk_lines):
            handle.write(chunk_lines[keep][: len(chunk_lines[keep]) // 2])
    resumed = run_units(
        rng_probe, mk(), seed=9, chunk_size=chunk_size, checkpoint=ck
    )
    assert resumed.values == baseline.values
    assert resumed.resumed_chunks == len(kept)
    # The checkpoint healed: every chunk is intact again afterwards.
    n_chunks = -(-n_units // chunk_size)
    assert len(load_checkpoint(ck).chunks) == n_chunks


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis unavailable")
class TestCheckpointResumeProperty:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n_units=st.integers(min_value=1, max_value=17),
        chunk_size=st.integers(min_value=1, max_value=6),
        keep=st.integers(min_value=0, max_value=17),
        torn=st.booleans(),
    )
    def test_interrupt_plus_resume_equals_uninterrupted(
        self, tmp_path, n_units, chunk_size, keep, torn
    ):
        _truncated_resume_case(tmp_path, n_units, chunk_size, keep, torn)


class TestCheckpointResumeSeededLoop:
    def test_random_kill_points_resume_bit_identical(self, tmp_path):
        rng = random.Random(1234)
        for case in range(6):
            n_units = rng.randint(1, 15)
            chunk_size = rng.randint(1, 5)
            keep = rng.randint(0, 8)
            _truncated_resume_case(
                os.path.join(tmp_path, str(case)) + "_",
                n_units,
                chunk_size,
                keep,
                torn=bool(rng.getrandbits(1)),
            )


def _strip_retry_family(snapshot):
    snapshot = copy.deepcopy(snapshot)
    snapshot["metrics"].pop("runner_chunk_retries_total", None)
    return snapshot


class TestTelemetryUnderRetry:
    def test_aggregate_matches_clean_run_modulo_retry_counter(
        self, chaos
    ):
        spec = TelemetrySpec(metrics=True)
        clean = run_units(
            metric_probe, units(8), chunk_size=2, telemetry=spec
        )
        chaotic = chaos.run(
            metric_probe,
            units(8),
            faults=chaos.faults(crash=(1, 6)),
            chunk_size=2,
            telemetry=spec,
        )
        assert chaotic.values == clean.values
        a = clean.telemetry.metrics_snapshot()
        b = chaotic.telemetry.metrics_snapshot()
        assert _strip_retry_family(a) == _strip_retry_family(b)
        retry_family = b["metrics"]["runner_chunk_retries_total"]
        reasons = {
            s["labels"]["reason"]: s["value"]
            for s in retry_family["series"]
        }
        assert reasons == {"unit-error": 2.0}

    def test_merge_order_invariant_under_process_retries(self, chaos):
        spec = TelemetrySpec(metrics=True)
        serial = run_units(
            metric_probe, units(8), chunk_size=2, telemetry=spec
        )
        parallel = chaos.run(
            metric_probe,
            units(8),
            faults=chaos.faults(crash=(3,)),
            chunk_size=2,
            n_workers=2,
            executor="process",
            telemetry=spec,
        )
        assert _strip_retry_family(
            serial.telemetry.metrics_snapshot()
        ) == _strip_retry_family(parallel.telemetry.metrics_snapshot())

    def test_live_telemetry_traces_retry_records(self, tmp_path, chaos):
        from repro.obs import (
            Telemetry,
            TraceWriter,
            activate,
            summarize_trace,
        )

        trace = tmp_path / "retries.jsonl"
        live = Telemetry(metrics=True, writer=TraceWriter(str(trace)))
        with activate(live):
            chaos.run(
                rng_probe,
                units(6),
                faults=chaos.faults(crash=(0, 5)),
                chunk_size=2,
                telemetry=None,
            )
        live.close()
        summary = summarize_trace(str(trace))
        assert summary["records"].get("retry") == 2
        assert summary["retries"] == {"unit-error": 2}
        retry_metric = live.registry.snapshot()["metrics"][
            "runner_chunk_retries_total"
        ]
        assert sum(s["value"] for s in retry_metric["series"]) == 2.0


class TestRunParallelSessionsWarning:
    def test_small_query_count_warns_and_goes_serial(self):
        from repro.core.session import (
            reset_small_query_warnings,
            run_parallel_sessions,
        )

        reset_small_query_warnings()
        with pytest.warns(RuntimeWarning, match="falling back"):
            result = run_parallel_sessions(
                SessionSpec(distance_m=3.0),
                2,
                queries=2,
                seed=0,
                n_workers=2,
                chunk_size=8,
                executor="process",
            )
        assert result.executor == "serial"
        assert len(result.values) == 2

    def test_warning_fires_once_per_job_across_redispatches(self):
        # Satellite bugfix: a resumed/retried job used to warn on every
        # re-dispatch of the same small-query configuration; the
        # warning now dedups per warn_key while the serial fallback
        # itself still applies every time.
        import warnings

        from repro.core.session import (
            reset_small_query_warnings,
            run_parallel_sessions,
        )

        reset_small_query_warnings()
        kwargs = dict(
            queries=2, seed=0, n_workers=2, chunk_size=8,
            executor="process", warn_key="job-000042",
        )
        build = SessionSpec(distance_m=3.0)
        with pytest.warns(RuntimeWarning) as record:
            first = run_parallel_sessions(build, 2, **kwargs)
        fallback = [
            w for w in record if "falling back" in str(w.message)
        ]
        assert len(fallback) == 1
        # Same job re-dispatching (e.g. after a checkpoint resume):
        # silent, but still serial and bit-identical.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            again = run_parallel_sessions(build, 2, **kwargs)
        assert again.executor == "serial"
        assert again.values == first.values
        # A different job warns on its own first dispatch.
        with pytest.warns(RuntimeWarning, match="falling back"):
            run_parallel_sessions(
                build, 2, **{**kwargs, "warn_key": "job-000043"}
            )

    def test_ample_queries_do_not_warn(self):
        import warnings

        from repro.core.session import run_parallel_sessions

        build = SessionSpec(distance_m=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_parallel_sessions(
                build, 2, queries=4, seed=0, n_workers=1, chunk_size=2
            )
        assert len(result.values) == 2


class TestSweepCli:
    def test_fault_without_retry_fails_cleanly(self, capsys):
        from repro.cli import main

        # Distance 0 puts the tag on the client: unit 0 raises.
        rc = main(
            [
                "sweep",
                "--distances", "0,2",
                "--seconds", "0.05",
                "--chunk", "1",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "sweep failed" in captured.err
        assert "chunk 0" in captured.err
        assert "retry summary" in captured.err
        assert "Traceback (most recent call last)" not in captured.err

    def test_tolerated_faults_match_clean_run(
        self, capsys, monkeypatch, chaos
    ):
        from repro.cli import main
        from repro.runner import workers

        base_args = [
            "sweep", "--distances", "1,2", "--seconds", "0.05",
            "--chunk", "1",
        ]
        assert main(base_args) == 0
        clean = capsys.readouterr().out
        monkeypatch.setattr(
            workers,
            "los_ber_point",
            chaos.wrap(workers.los_ber_point, chaos.faults(crash=(0, 1))),
        )
        assert main(base_args + ["--retries", "3"]) == 0
        chaotic = capsys.readouterr().out
        def table_rows(out):
            # Keep the physics rows; worker-timing rows carry wall-clock
            # busy seconds that legitimately differ between runs.
            return [
                line
                for line in out.splitlines()
                if line.startswith(" ") and "busy" not in line
            ]

        clean_table = table_rows(clean)
        chaotic_table = table_rows(chaotic)
        assert clean_table  # the sweep table rows render indented
        assert clean_table == chaotic_table
        assert "fault tolerance:" in chaotic

    def test_checkpoint_resume_cli(self, tmp_path, capsys):
        from repro.cli import main

        ck = str(tmp_path / "cli.ckpt.jsonl")
        args = [
            "sweep", "--distances", "1,2", "--seconds", "0.05",
            "--chunk", "1", "--checkpoint", ck,
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        assert "2 chunk(s) resumed" in capsys.readouterr().out

