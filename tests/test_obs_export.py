"""Timeline exports: ``repro trace export``.

The trace-to-Chrome-tracing and trace-to-flamegraph conversions must be
structurally valid (every event carries the required ``trace_event``
fields, query spans lay end-to-end on simulated time) and conservative:
each session record carries the spans of its own run, flamegraph line
weights are self times that sum to the runs' total to rounding, and
span events nest inside their parents.
"""

import json
import time

import numpy as np
import pytest

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
from repro.obs.export import trace_spans
from repro.sim.scenario import los_scenario


@pytest.fixture(scope="module")
def trace_records(tmp_path_factory):
    """One short traced session's records (queries + session + spans)."""
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
        # The span track exists and is named.
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["name"] == "thread_name"
        }
        assert {"queries", "spans"} <= names

    def test_span_events_nest_inside_their_parents(self, trace_records):
        events = {
            e["name"]: e
            for e in chrome_trace(trace_records)["traceEvents"]
            if e.get("cat") == "span"
        }

        def inside(child, parent):
            return (
                parent["ts"] <= child["ts"]
                and child["ts"] + child["dur"]
                <= parent["ts"] + parent["dur"] + 1e-6
            )

        session = events["core.session"]
        decode = events["phy.error_model"]
        assert inside(decode, session)
        for stage in ("channel", "csi", "eesm", "phy.coding"):
            assert inside(events[stage], decode), stage
        for stage in ("core.query", "tag.state_machine", "mac.block_ack"):
            assert inside(events[stage], session), stage

    def test_round_trips_through_json(self, trace_records):
        doc = chrome_trace(trace_records)
        assert json.loads(json.dumps(doc)) == doc


def _weights_us(lines):
    return sum(int(line.rsplit(" ", 1)[1]) for line in lines)


def _traced_runs(tmp_path, seconds):
    """Traced ``run_for`` calls on one LOS session; (records, walls)."""
    path = tmp_path / "runs.jsonl"
    telemetry = Telemetry(metrics=False, writer=TraceWriter(str(path)))
    system, _ = los_scenario(4.0, seed=3)
    telemetry.attach(system)
    session = MeasurementSession(system, rng=np.random.default_rng(4))
    walls = []
    for duration_s in seconds:
        start = time.perf_counter()
        session.run_for(duration_s)
        walls.append(time.perf_counter() - start)
    telemetry.close()
    return list(read_trace(str(path), validate=True)), walls


class TestFlamegraph:
    def test_lines_sum_to_total_stage_time(self, trace_records):
        spans = trace_spans(trace_records)
        assert set(spans) == {"core.session"}
        lines = flamegraph_lines(spans)
        want_us = 1e6 * spans["core.session"]["seconds"]
        assert _weights_us(lines) == pytest.approx(
            want_us, abs=0.5 * len(lines)
        )
        for line in lines:
            frame, weight = line.rsplit(" ", 1)
            assert frame.split(";")[0] == "core.session"
            assert int(weight) >= 0
        assert "core.session;phy.error_model;csi" in {
            line.rsplit(" ", 1)[0] for line in lines
        }

    def test_merge_sums_across_sessions(self):
        session = {
            "kind": "session",
            "spans": {
                "core.session": {
                    "seconds": 0.25,
                    "calls": 1,
                    "children": {
                        "core.query": {
                            "seconds": 0.125,
                            "calls": 10,
                            "children": {},
                        }
                    },
                }
            },
        }
        merged = trace_spans([session, session, {"kind": "query"}])
        assert merged == {
            "core.session": {
                "seconds": 0.5,
                "calls": 2,
                "children": {
                    "core.query": {
                        "seconds": 0.25,
                        "calls": 20,
                        "children": {},
                    }
                },
            }
        }
        assert flamegraph_lines(merged) == [
            "core.session 250000",
            "core.session;core.query 250000",
        ]

    def test_one_run_lines_fit_in_its_wall_time(self, tmp_path):
        records, (wall_s,) = _traced_runs(tmp_path, [1.0])
        lines = flamegraph_lines(trace_spans(records))
        assert _weights_us(lines) <= 1e6 * wall_s + 0.5 * len(lines)

    def test_session_records_cover_their_own_run_only(self, tmp_path):
        records, walls = _traced_runs(tmp_path, [0.25] * 4)
        sessions = [r for r in records if r["kind"] == "session"]
        assert len(sessions) == 4
        fsm_calls = 0
        stage_s = 0.0
        for record in sessions:
            (root,) = record["spans"].values()
            assert root["calls"] == 1
            stages = root["children"]
            fsm_calls += stages["tag.state_machine"]["calls"]
            stage_s += sum(stage["seconds"] for stage in stages.values())
            assert root["seconds"] >= sum(
                stage["seconds"] for stage in stages.values()
            )
        assert fsm_calls == sum(r["queries"] for r in sessions)
        assert stage_s <= sum(walls)


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
        # A query-only trace has no spans to collapse.
        bare = tmp_path / "bare.jsonl"
        with open(bare, "w", encoding="utf-8") as handle:
            for record in trace_records:
                if record.get("kind") != "session":
                    handle.write(json.dumps(record) + "\n")
        assert (
            main(["trace", "export", str(bare), "--format", "flamegraph"])
            == 2
        )
