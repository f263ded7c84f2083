"""Unit tests for the parallel experiment engine's machinery.

Determinism has its own suite (``test_runner_determinism.py``); this
one covers the plumbing: spec validation, chunking edge cases, the
serial fallback, error propagation out of workers, timing counters, and
result rendering.
"""

import multiprocessing
import os

import pytest

from repro.runner import (
    SweepError,
    SweepSpec,
    UnitContext,
    WorkUnitError,
    run_sessions,
    run_sweep,
    run_units,
)
from repro.runner.engine import _auto_chunk_size, _chunked

pytestmark = pytest.mark.runner


def echo(ctx: UnitContext):
    return ctx.parameters


def double_x(ctx: UnitContext):
    return ctx.parameters["x"] * 2


def boom(ctx: UnitContext):
    if ctx.parameters["x"] == 2:
        raise ValueError("synthetic failure in unit 2")
    return ctx.parameters["x"]


def units(n, seed=0):
    return [
        UnitContext(index=i, parameters={"x": i}, root_seed=seed)
        for i in range(n)
    ]


class TestSweepSpecValidation:
    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError, match="at least one axis"):
            SweepSpec(axes={})

    def test_rejects_empty_axis_values(self):
        with pytest.raises(ValueError, match="has no values"):
            SweepSpec(axes={"x": []})

    def test_rejects_non_sequence_axis(self):
        with pytest.raises(ValueError, match="must be a sequence"):
            SweepSpec(axes={"x": 5})

    def test_rejects_non_string_axis_name(self):
        with pytest.raises(ValueError, match="must be a string"):
            SweepSpec(axes={3: [1]})

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            SweepSpec(axes={"x": [1]}, chunk_size=0)

    def test_grid_order_and_count(self):
        spec = SweepSpec(axes={"a": [1, 2], "b": ["u", "v", "w"]})
        assert spec.n_points == 6
        grid = [u.parameters for u in spec.units()]
        assert grid[0] == {"a": 1, "b": "u"}
        assert grid[1] == {"a": 1, "b": "v"}
        assert grid[-1] == {"a": 2, "b": "w"}


class TestChunking:
    def test_zero_units_runs_empty(self):
        result = run_units(echo, [], n_workers=1)
        assert result.points == ()
        assert result.values == []
        assert result.worker_timings == ()

    def test_chunk_larger_than_total(self):
        result = run_units(echo, units(3), n_workers=1, chunk_size=100)
        assert len(result.values) == 3
        assert result.chunk_size == 100

    def test_uneven_remainder(self):
        batches = _chunked(units(7), 3)
        assert [len(b) for b in batches] == [3, 3, 1]
        result = run_units(double_x, units(7), n_workers=1, chunk_size=3)
        assert result.values == [0, 2, 4, 6, 8, 10, 12]

    def test_auto_chunk_size_bounds(self):
        assert _auto_chunk_size(0, 4) == 1
        assert _auto_chunk_size(1, 4) == 1
        assert _auto_chunk_size(100, 2) == 13  # ceil(100 / 8)
        assert _auto_chunk_size(5, 1) == 2

    def test_rejects_bad_runtime_chunk(self):
        with pytest.raises(ValueError, match="chunk_size"):
            run_units(echo, units(3), n_workers=1, chunk_size=0)


class TestSerialFallback:
    def test_one_worker_is_serial(self):
        result = run_units(echo, units(3), n_workers=1)
        assert result.executor == "serial"
        assert len(result.worker_timings) == 1

    def test_no_fork_style_start_method_runs_serial(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        result = run_units(echo, units(4), n_workers=2)
        assert result.executor == "serial"
        assert result.values == [{"x": i} for i in range(4)]

    def test_serial_accepts_unpicklable_fn(self):
        captured = []

        def closure(ctx):  # not picklable: local closure
            captured.append(ctx.index)
            return ctx.index

        result = run_units(closure, units(4), n_workers=1)
        assert result.values == [0, 1, 2, 3]
        assert captured == [0, 1, 2, 3]

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="n_workers"):
            run_units(echo, units(1), n_workers=0)


class TestErrorPropagation:
    def test_raising_unit_surfaces_serial(self, chaos):
        with pytest.raises(WorkUnitError) as excinfo:
            chaos.run(
                echo, units(5),
                faults=chaos.faults(crash=(2,)), retry=None,
                n_workers=1,
            )
        assert excinfo.value.index == 2
        assert excinfo.value.parameters == {"x": 2}
        assert "injected crash" in str(excinfo.value)
        assert "InjectedFault" in excinfo.value.cause
        assert excinfo.value.attempts == 1

    def test_raising_unit_surfaces_parallel(self, chaos):
        with pytest.raises(WorkUnitError) as excinfo:
            chaos.run(
                echo, units(5),
                faults=chaos.faults(crash=(2,)), retry=None,
                n_workers=3, chunk_size=1,
            )
        assert excinfo.value.index == 2
        assert excinfo.value.chunk_index == 2
        assert "worker traceback" in str(excinfo.value)

    def test_user_exception_reaches_coordinator(self):
        # Non-injected failures take the same path as chaos faults.
        with pytest.raises(WorkUnitError) as excinfo:
            run_units(boom, units(5), n_workers=1)
        assert excinfo.value.index == 2
        assert "synthetic failure" in str(excinfo.value)
        assert "ValueError" in excinfo.value.cause

    def test_unpicklable_fn_on_process_pool_is_clear(self):
        def closure(ctx):
            return ctx.index

        with pytest.raises(SweepError):
            run_units(closure, units(4), n_workers=2)

    def test_work_unit_error_is_sweep_error(self):
        assert issubclass(WorkUnitError, SweepError)


class TestTimingCounters:
    def test_serial_counters_account_for_all_units(self):
        result = run_units(echo, units(9), n_workers=1, chunk_size=4)
        (timing,) = result.worker_timings
        assert timing.n_units == 9
        assert timing.n_chunks == 3
        assert timing.busy_s >= 0.0
        assert result.busy_s == timing.busy_s
        assert result.wall_s >= timing.busy_s

    def test_parallel_counters_cover_every_unit(self):
        result = run_units(
            echo, units(8), n_workers=2, chunk_size=2
        )
        assert result.executor == "process"
        assert sum(t.n_units for t in result.worker_timings) == 8
        assert sum(t.n_chunks for t in result.worker_timings) == 4


class TestProcessPoolSizing:
    def test_one_unit_forks_one_process(self, monkeypatch):
        # The fork start method launches every pool worker up front, so
        # the number of forks is the size of the pool the round opened.
        forks = []
        real_fork = os.fork

        def counting_fork():
            pid = real_fork()
            forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        spec = SweepSpec(axes={"x": [21]}, seed=4)
        pooled = run_sweep(double_x, spec, n_workers=4)
        assert len(forks) == 1
        assert pooled.executor == "process"
        assert pooled.n_workers == 4
        serial = run_sweep(double_x, spec, n_workers=1)
        assert pooled.points == serial.points


class TestRunSweepAndResult:
    def test_run_sweep_values_in_grid_order(self):
        spec = SweepSpec(axes={"x": [3, 1, 2]}, seed=0)
        result = run_sweep(double_x, spec, n_workers=1)
        assert result.values == [6, 2, 4]
        assert [p.parameters["x"] for p in result.points] == [3, 1, 2]

    def test_spec_chunk_size_flows_through(self):
        spec = SweepSpec(axes={"x": [1, 2, 3]}, seed=0, chunk_size=2)
        result = run_sweep(double_x, spec, n_workers=1)
        assert result.chunk_size == 2

    def test_table_scalar_values(self):
        spec = SweepSpec(axes={"x": [1, 2]}, seed=0)
        result = run_sweep(double_x, spec, n_workers=1)
        rendered = result.table("demo", value_label="doubled").render()
        assert "doubled" in rendered
        assert "x" in rendered

    def test_table_dict_values_get_columns(self):
        def measure(ctx):
            return {"ber": 0.5, "rate": 1.25}

        spec = SweepSpec(axes={"d": [1.0, 2.0]}, seed=0)
        result = run_sweep(measure, spec, n_workers=1)
        rendered = result.table("demo").render()
        assert "ber" in rendered and "rate" in rendered


class TestRunSessionsValidation:
    def test_requires_exactly_one_mode(self):
        with pytest.raises(ValueError, match="exactly one"):
            run_sessions(echo, 1)
        with pytest.raises(ValueError, match="exactly one"):
            run_sessions(echo, 1, queries=3, duration_s=1.0)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="n_sessions"):
            run_sessions(echo, -1, queries=1)

    def test_zero_sessions_is_empty(self):
        result = run_sessions(echo, 0, queries=1)
        assert result.values == []

    def test_parameters_arity_checked(self):
        with pytest.raises(ValueError, match="one entry per session"):
            run_sessions(echo, 2, queries=1, parameters=[{}])


class TestChunkProgressObserver:
    """The ``on_chunk`` hook: the engine's event-loop drivability."""

    def test_called_once_per_chunk_in_completion_order(self):
        seen = []
        result = run_units(
            double_x,
            units(10),
            chunk_size=3,
            on_chunk=seen.append,
        )
        assert len(seen) == 4  # chunks of 3,3,3,1
        assert [p.chunks_done for p in seen] == [1, 2, 3, 4]
        assert all(p.n_chunks == 4 for p in seen)
        assert sum(p.n_units for p in seen) == 10
        assert not any(p.resumed for p in seen)
        # serial executor resolves chunks in submission order
        assert [p.chunk_index for p in seen] == [0, 1, 2, 3]
        assert [p.first_index for p in seen] == [0, 3, 6, 9]
        assert result.values == [x * 2 for x in range(10)]

    def test_resumed_chunks_reported_first_and_flagged(self, tmp_path):
        checkpoint = tmp_path / "run.ckpt.jsonl"
        run_units(
            double_x,
            units(8),
            chunk_size=2,
            checkpoint=checkpoint,
            on_chunk=lambda p: None,
        )
        seen = []
        resumed_run = run_units(
            double_x,
            units(8),
            chunk_size=2,
            checkpoint=checkpoint,
            resume=True,
            on_chunk=seen.append,
        )
        assert resumed_run.resumed_chunks == 4
        assert [p.resumed for p in seen] == [True] * 4
        # resumed chunks replay in chunk order before any execution
        assert [p.chunk_index for p in seen] == [0, 1, 2, 3]
        assert [p.chunks_done for p in seen] == [1, 2, 3, 4]

    def test_observer_exception_aborts_but_keeps_checkpoint(
        self, tmp_path
    ):
        """Raising from the observer = cooperative cancellation."""
        checkpoint = tmp_path / "cancel.ckpt.jsonl"

        class Stop(Exception):
            pass

        def cancel_after_two(progress):
            if progress.chunks_done == 2:
                raise Stop()

        with pytest.raises(Stop):
            run_units(
                double_x,
                units(10),
                chunk_size=2,
                checkpoint=checkpoint,
                on_chunk=cancel_after_two,
            )
        # the two completed chunks survived; a resume skips them and
        # still produces the full, bit-identical result
        seen = []
        resumed = run_units(
            double_x,
            units(10),
            chunk_size=2,
            checkpoint=checkpoint,
            resume=True,
            on_chunk=seen.append,
        )
        assert resumed.resumed_chunks == 2
        baseline = run_units(double_x, units(10), chunk_size=2)
        assert resumed.values == baseline.values
        assert sum(1 for p in seen if p.resumed) == 2

    def test_run_sweep_and_run_sessions_pass_through(self):
        from repro.runner.workers import SessionSpec

        seen = []
        spec = SweepSpec(axes={"x": [1, 2, 3, 4]}, chunk_size=2)
        run_sweep(double_x, spec, on_chunk=seen.append)
        assert [p.chunks_done for p in seen] == [1, 2]
        seen.clear()
        run_sessions(
            SessionSpec(kind="los"),
            2,
            queries=1,
            chunk_size=1,
            on_chunk=seen.append,
        )
        assert [p.chunks_done for p in seen] == [1, 2]
