"""Timeline exports and the bench regression watchdog.

Two halves of the observability tentpole's offline tooling:

* ``repro trace export`` — the trace-to-Chrome-tracing and
  trace-to-flamegraph conversions must be structurally valid (every
  event carries the required ``trace_event`` fields, query spans lay
  end-to-end on simulated time) and conservative (flamegraph line
  weights sum to the trace's total stage time to rounding).
* ``repro bench check`` — the watchdog walks the mixed-schema bench
  trajectory, compares the *latest* measurement per gate against the
  pinned baseline ratio, skips unpinned gates rather than failing a
  fresh clone, and exits nonzero exactly when a regression is present.
"""

import json

import numpy as np
import pytest

from repro.bench import bench_check
from repro.cli import main
from repro.core.session import MeasurementSession
from repro.obs import (
    Telemetry,
    TraceSampler,
    TraceWriter,
    chrome_trace,
    flamegraph_lines,
    read_trace,
)
from repro.obs.export import merge_stage_timings
from repro.sim.scenario import los_scenario


@pytest.fixture(scope="module")
def trace_records(tmp_path_factory):
    """One short traced session's records (queries + session + stages)."""
    path = tmp_path_factory.mktemp("trace") / "session.jsonl"
    telemetry = Telemetry(
        writer=TraceWriter(str(path)), sampler=TraceSampler(every_n=1)
    )
    system, _ = los_scenario(4.0, seed=5)
    telemetry.attach(system)
    MeasurementSession(
        system, rng=np.random.default_rng(6)
    ).run_queries(12)
    telemetry.close()
    return list(read_trace(str(path)))


class TestChromeTrace:
    def test_structure_and_layout(self, trace_records):
        doc = chrome_trace(trace_records)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        for event in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid", "ts"} <= set(event)
            if event["ph"] == "X":
                assert event["dur"] >= 0
        queries = [
            e for e in doc["traceEvents"] if e.get("cat") == "query"
        ]
        assert len(queries) == 12
        # End-to-end on simulated time: each query starts where the
        # previous one ended, spanning its cycle airtime.
        cursor = 0.0
        records = [
            r for r in trace_records if r.get("kind") == "query"
        ]
        for event, record in zip(queries, records):
            assert event["ts"] == pytest.approx(cursor)
            assert event["dur"] == pytest.approx(
                record["cycle_s"] * 1e6
            )
            assert event["args"]["bitmap"] == record["bitmap"]
            cursor += event["dur"]
        # Stage tracks exist and are named.
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["name"] == "thread_name"
        }
        assert "queries" in names
        assert any(n.startswith("stages:") for n in names)

    def test_round_trips_through_json(self, trace_records):
        doc = chrome_trace(trace_records)
        assert json.loads(json.dumps(doc)) == doc


class TestFlamegraph:
    def test_lines_sum_to_total_stage_time(self, trace_records):
        timings = merge_stage_timings(trace_records)
        assert timings  # the session recorded stage counters
        lines = flamegraph_lines(timings)
        total_us = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
        want_us = 1e6 * sum(
            stage["seconds"]
            for group in timings.values()
            for stage in group.values()
        )
        assert total_us == pytest.approx(want_us, abs=0.5 * len(lines))
        for line in lines:
            frame, weight = line.rsplit(" ", 1)
            assert ";" in frame and int(weight) >= 0

    def test_merge_sums_across_sessions(self):
        session = {
            "kind": "session",
            "stage_timings": {
                "system": {"decode": {"seconds": 0.25, "calls": 10}}
            },
        }
        merged = merge_stage_timings([session, session, {"kind": "query"}])
        assert merged == {
            "system": {"decode": {"seconds": 0.5, "calls": 20}}
        }


class TestTraceExportCli:
    def test_chrome_export(self, trace_records, tmp_path):
        trace = tmp_path / "t.jsonl"
        with open(trace, "w", encoding="utf-8") as handle:
            for record in trace_records:
                handle.write(json.dumps(record) + "\n")
        out = tmp_path / "chrome.json"
        assert (
            main(
                [
                    "trace",
                    "export",
                    str(trace),
                    "--format",
                    "chrome",
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]

    def test_flamegraph_export_and_empty_trace(self, trace_records, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        with open(trace, "w", encoding="utf-8") as handle:
            for record in trace_records:
                handle.write(json.dumps(record) + "\n")
        assert (
            main(["trace", "export", str(trace), "--format", "flamegraph"])
            == 0
        )
        out = capsys.readouterr().out
        assert all(
            " " in line for line in out.strip().splitlines()
        )
        # A query-only trace has no stage timings to collapse.
        bare = tmp_path / "bare.jsonl"
        with open(bare, "w", encoding="utf-8") as handle:
            for record in trace_records:
                if record.get("kind") != "session":
                    handle.write(json.dumps(record) + "\n")
        assert (
            main(["trace", "export", str(bare), "--format", "flamegraph"])
            == 2
        )


BASELINES = {
    "session_batch": {"speedup_session_vs_vectorized": 2.0},
    "fleet": {"speedup_fleet_vs_scalar": 10.0},
    "adaptive": {"goodput_ratio_adaptive_vs_static": 1.4},
}


def write_files(tmp_path, entries, baselines=BASELINES):
    trajectory = tmp_path / "trajectory.json"
    trajectory.write_text(json.dumps(entries))
    baselines_path = tmp_path / "baselines.json"
    baselines_path.write_text(json.dumps(baselines))
    return str(trajectory), str(baselines_path)


def entry(
    session=None,
    tier4=None,
    fleet=None,
    adaptive=None,
    recorded_at="2026-01-01",
):
    out = {"recorded_at": recorded_at}
    if session is not None:
        out["speedups"] = {"session_vs_vectorized": session}
    if tier4 is not None:
        out["tier4"] = {"speedup_tier4_vs_session_batch": tier4}
    if fleet is not None:
        out["fleet"] = {"speedup_fleet_vs_scalar": fleet}
    if adaptive is not None:
        out["adaptive"] = {"goodput_ratio_adaptive_vs_static": adaptive}
    return out


class TestBenchCheck:
    def test_all_gates_above_floor_pass(self, tmp_path):
        trajectory, baselines = write_files(
            tmp_path,
            [entry(session=1.9, fleet=9.0, adaptive=1.3)],
        )
        report = bench_check(trajectory, baselines)
        assert report["ok"] is True
        assert {c["name"] for c in report["checks"]} == {
            "session_batch",
            "fleet",
            "adaptive",
        }
        assert report["skipped"] == []

    def test_latest_entry_wins(self, tmp_path):
        # An old healthy fleet number must not mask a new regression.
        trajectory, baselines = write_files(
            tmp_path,
            [
                entry(fleet=12.0, recorded_at="2026-01-01"),
                entry(fleet=5.0, recorded_at="2026-02-01"),
            ],
        )
        report = bench_check(trajectory, baselines)
        fleet = next(
            c for c in report["checks"] if c["name"] == "fleet"
        )
        assert fleet["measured"] == 5.0
        assert fleet["recorded_at"] == "2026-02-01"
        assert fleet["ok"] is False and report["ok"] is False

    def test_mixed_schema_entries_are_tolerated(self, tmp_path):
        # Schema-1 entries lack the fleet block entirely, and schema-2
        # entries carry a tier4 block no gate reads any more (even
        # against a stale tier4 baseline); the watchdog reads through
        # both without failing.
        trajectory, baselines = write_files(
            tmp_path,
            [
                {"speedups": {"session_vs_vectorized": 2.1}},
                entry(tier4=0.1),
                {"schema": 3, "unrelated": True},
            ],
            baselines={
                **BASELINES,
                "tier4": {"speedup_tier4_vs_session_batch": 3.0},
            },
        )
        report = bench_check(trajectory, baselines)
        assert report["ok"] is True
        assert {c["name"] for c in report["checks"]} == {"session_batch"}
        assert {s["name"] for s in report["skipped"]} == {
            "fleet",
            "adaptive",
        }
        assert all(
            s["reason"] == "no trajectory entry"
            for s in report["skipped"]
        )

    def test_unpinned_baseline_is_skipped_not_failed(self, tmp_path):
        trajectory, baselines = write_files(
            tmp_path,
            [entry(session=0.1, fleet=0.1)],
            baselines={},
        )
        report = bench_check(trajectory, baselines)
        assert report["ok"] is True
        assert report["checks"] == []
        assert all(
            s["reason"] == "no baseline pinned"
            for s in report["skipped"]
        )

    def test_missing_trajectory_file_passes(self, tmp_path):
        report = bench_check(
            str(tmp_path / "absent.json"),
            write_files(tmp_path, [])[1],
        )
        assert report["ok"] is True and report["checks"] == []

    def test_threshold_validation(self, tmp_path):
        trajectory, baselines = write_files(tmp_path, [])
        with pytest.raises(ValueError, match="threshold"):
            bench_check(trajectory, baselines, threshold=0.0)
        with pytest.raises(ValueError, match="threshold"):
            bench_check(trajectory, baselines, threshold=1.5)

    def test_cli_exit_codes(self, tmp_path, capsys):
        trajectory, baselines = write_files(
            tmp_path, [entry(session=1.9, fleet=9.0)]
        )
        assert (
            main(
                [
                    "bench",
                    "check",
                    "--trajectory",
                    trajectory,
                    "--baselines",
                    baselines,
                ]
            )
            == 0
        )
        regressed, _ = write_files(
            tmp_path, [entry(session=1.9, fleet=5.0)]
        )
        assert (
            main(
                [
                    "bench",
                    "check",
                    "--trajectory",
                    regressed,
                    "--baselines",
                    baselines,
                ]
            )
            == 1
        )
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        assert "fleet" in captured.err

    def test_cli_check_against_real_repo_data(self):
        # The committed trajectory + baselines must pass the watchdog:
        # this is the soft gate CI runs.
        report = bench_check(
            "benchmarks/BENCH_session_batch.json",
            "benchmarks/baselines.json",
        )
        assert report["ok"] is True

    def test_plain_bench_parse_still_works(self):
        # `repro bench` without a subcommand keeps its classic routing;
        # `check` reroutes to the watchdog.
        from repro.cli import (
            _cmd_bench,
            _cmd_bench_check,
            build_parser,
        )

        parser = build_parser()
        assert parser.parse_args(["bench"]).func is _cmd_bench
        assert (
            parser.parse_args(["bench", "--queries", "5"]).func
            is _cmd_bench
        )
        assert (
            parser.parse_args(["bench", "check"]).func
            is _cmd_bench_check
        )
