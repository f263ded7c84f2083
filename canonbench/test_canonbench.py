"""The benchmark's own checks: run with ``python3 -m pytest canonbench``.

They drive ``run.py`` the way the benchmark is run, briefly, and
assert that no run leaves a process behind (the test process is a
child subreaper, so anything a run orphans would land here), that the
traced per-layer times sum to the traced wall time, and that hazard 2
(a server deadlock) still reproduces.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import proctree
import run
from tracer import UNIT, Target, Tracer, attribute

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [metric["name"] for metric in BENCHMARK["per_layer"]]
END_TO_END = [metric["name"] for metric in BENCHMARK["end_to_end"]]

#: A per-layer count that only moves if the workload exercised the
#: layer it is chosen for (for fig5-sweep: only in forked workers, and
#: only through the by-name import in ``repro.phy.kernels``).
EXERCISED = {
    "fig5-sweep": ["phy.error_model.decode_calls", "phy.coding.calls"],
    "session-contended": ["core.system.scalar_queries", "mac.csma.draws"],
    "session-ccmp-contended": ["mac.security.mpdus"],
    "warehouse-2000x4": ["sim.network.mobility_ticks",
                         "core.fleet.rows_invalidated"],
    "serve-job": ["serve.jobs", "runner.processes_started"],
}


@pytest.fixture(scope="module", autouse=True)
def subreaper():
    proctree.become_subreaper()


def assert_nothing_left() -> None:
    left = proctree.reap_orphans()
    assert not left, f"processes left behind: {left}"
    assert not proctree.descendants(os.getpid())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str, dict | None]:
    proc = subprocess.run(
        [sys.executable, "canonbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, proc.stdout + proc.stderr, result


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_run_is_correct_and_leaves_nothing_running(workload):
    code, output, result = bench(
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert code == 0, output
    assert result["correct"] and result["failed"] == 0, output
    assert sorted(result["metrics"]) == sorted(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values()), output
    assert_nothing_left()


def test_missed_deadline_kills_and_reaps_the_op(monkeypatch, capsys):
    # In-process, so that the deadline can be shortened to force a miss.
    monkeypatch.setattr(run, "OP_DEADLINE_S", 0.5)
    code = run.main([
        "--workload", "fig5-sweep", "--seed", "1", "--seconds", "5",
        "--trace", "0",
    ])
    output = capsys.readouterr().out
    result = json.loads(output.strip().splitlines()[-1])
    assert code == 0, output
    assert not result["correct"] and result["failed"] >= 1, output
    assert "missed its 0.5 s deadline" in output
    assert_nothing_left()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_layers_sum_to_traced_wall(workload):
    code, output, result = bench(
        "--workload", workload, "--seed", "2", "--seconds", "1",
        "--trace", "1",
    )
    assert code == 0, output
    assert result["correct"], output
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert sorted(metrics) == sorted(PER_LAYER)
    layers = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    wall = metrics["traced_wall_s"]
    assert layers + metrics["unattributed_s"] == pytest.approx(wall, rel=1e-9)
    assert metrics["trace_overhead"] > 0
    for name in EXERCISED[workload]:
        assert metrics[name] > 0, name
    assert "missing:" not in output
    assert_nothing_left()


class Hung(Exception):
    """The two clients' jobs did not finish within the deadline."""


@pytest.mark.xfail(
    strict=True,
    raises=Hung,
    reason="hazard 2: with two concurrent n_workers=2 jobs on a default "
    "ServeConfig, forked pool workers block in "
    "resource_tracker.ensure_running(), reached from "
    "SharedMemory(create=True) in transport.encode_chunk, on a lock "
    "another job thread held at fork time",
)
def test_two_concurrent_clients_finish():
    segments_before = run.live_segments()
    proc = subprocess.Popen(
        [sys.executable, "canonbench/serve_pair.py", "--jobs", "12"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stdout=subprocess.PIPE, text=True,
    )
    killed: list[int] = []
    try:
        out, _ = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        killed = proctree.kill_tree(proc.pid)
        out, _ = proc.communicate()
    finally:
        # Hung workers created their chunk segments before blocking.
        segments = run.live_segments() - segments_before
        run.remove_segments(segments)
    # The killed workers were re-parented here when their parent died.
    reaped = proctree.reap_orphans()
    assert {pid for pid, _, _ in reaped} <= set(killed), reaped
    assert_nothing_left()
    if killed:
        raise Hung(f"not done after 30 s; killed {len(killed)} processes")
    assert not segments, f"segments left behind: {sorted(segments)}"
    assert proc.returncode == 0 and "done" in out, out


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "canonbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".spool"))
    code, output, result = bench(
        "--workload", "fig5-sweep", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert code != 0
    assert result is None, output


def test_failed_op_is_counted_and_left_out_of_the_metrics():
    # An op whose output could not be collected (ServeJob.finish raised)
    # has its times but no query count.
    events = [
        {"event": "op", "pass": "measure", "index": 0, "input": 0,
         "cpu_s": 0.2, "wall_s": 0.5, "queries": 100, "digest": "aaaa",
         "error": None},
        {"event": "op", "pass": "measure", "index": 1, "input": 1,
         "cpu_s": 0.3, "wall_s": 0.7, "error": "RuntimeError: job failed"},
        {"event": "end", "rss_self_kb": 2048, "rss_children_kb": 1024},
    ]
    failed, problems = run.check_ops(events, None)
    assert failed == 1 and "job failed" in problems[0], problems
    metrics = run.end_to_end([(1.0, None)], {"events": events})
    assert metrics["queries_per_s"][0] == pytest.approx(200.0)
    assert metrics["cpu_ms_per_query"][0] == pytest.approx(2.0)
    assert metrics["job_latency_p50_s"][0] == 0.5
    assert metrics["peak_rss_mb"][0] == 3.0


def test_times_are_scaled_to_nominal_speed():
    # Measured while the yardstick ran twice as slow as nominal: every
    # time halves, the query count and the memory do not change.
    slow = 2 * run.NOMINAL_YARDSTICK_S
    events = [
        {"event": "op", "pass": "measure", "index": 0, "input": 0,
         "yardstick_s": slow, "cpu_s": 0.4, "wall_s": 1.0,
         "queries": 100, "digest": "aaaa", "error": None},
        {"event": "end", "rss_self_kb": 2048, "rss_children_kb": 0},
    ]
    metrics = run.end_to_end([(3.0, slow), (1.0, slow / 2)],
                             {"events": events})
    assert metrics["setup_s"][0] == pytest.approx(1.25)
    assert metrics["queries_per_s"][0] == pytest.approx(200.0)
    assert metrics["cpu_ms_per_query"][0] == pytest.approx(2.0)
    assert metrics["job_latency_p50_s"][0] == pytest.approx(0.5)
    assert metrics["peak_rss_mb"][0] == 2.0


def test_mismatched_output_fails():
    op = {"event": "op", "pass": "measure", "error": None}
    events = [
        dict(op, index=0, input=0, digest="aaaa"),
        dict(op, index=1, input=1, digest="cccc"),
        {"event": "reference", "input": 0, "digest": "dddd"},
    ]
    failed, problems = run.check_ops(events, ["aaaa", "bbbb"])
    assert failed == 2, problems
    # Unpinned seed: only repeats of an input are compared.
    events = [dict(op, index=i, input=0, digest=d)
              for i, d in enumerate(["x", "x", "y"])]
    assert run.check_ops(events, None)[0] == 1


def test_attribution_splits_parallel_workers():
    owner = 1
    layer_of = ["runner", "phy.error_model", "runner"]
    spans = [
        (owner, 10, 0, 0.0, 10.0),  # run_units, waiting on workers
        (2, 20, 2, 1.0, 9.0),  # worker A: one unit ...
        (2, 20, 1, 2.0, 4.0),  # ... with a decode inside
        (3, 30, 2, 1.0, 5.0),  # worker B: one unit
    ]
    self_s, unattributed = attribute(spans, [(0.0, 10.0)], owner, layer_of)
    assert self_s == pytest.approx({"runner": 9.0, "phy.error_model": 1.0})
    assert unattributed == 0.0
    self_s, unattributed = attribute(
        spans[:1], [(-1.0, 10.0)], owner, layer_of
    )
    assert self_s == {"runner": 10.0} and unattributed == 1.0


def test_missing_targets_are_listed_and_callers_patched(tmp_path):
    import repro.phy.coding as coding
    import repro.phy.kernels as kernels

    original = coding.coded_bit_error_rate_batch
    tracer = Tracer(str(tmp_path), targets=(
        Target("phy.coding", "repro.phy.coding:coded_bit_error_rate_batch"),
        Target("core.session",
               "repro.core.session:MeasurementSession.no_such_method"),
        Target("serve", "repro.no_such_module:execute_request"),
    ))
    try:
        tracer.install()
        assert tracer.missing == [
            "repro.core.session:MeasurementSession.no_such_method",
            "repro.no_such_module:execute_request",
        ]
        assert kernels.coded_bit_error_rate_batch is not original
        assert kernels.coded_bit_error_rate_batch.__wrapped__ is original
        assert tracer.all_targets[-1] is UNIT
    finally:
        wrapper = kernels.coded_bit_error_rate_batch
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if isinstance(namespace, dict):
                for key, value in list(namespace.items()):
                    if value is wrapper:
                        namespace[key] = original
