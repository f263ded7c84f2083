"""Timeline exports: ``repro trace export``.

The trace-to-Chrome-tracing and trace-to-flamegraph conversions must be
structurally valid (every event carries the required ``trace_event``
fields, query spans lay end-to-end on simulated time) and conservative
(flamegraph line weights sum to the trace's total stage time to
rounding).
"""

import json

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
    validate_trace_record,
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

    def test_legacy_transport_records_validate_and_are_skipped(
        self, trace_records
    ):
        # Older versions wrote one record per chunk crossing the
        # process boundary; nothing writes them now.
        transport = {
            "schema": trace_records[0]["schema"],
            "kind": "transport",
            "chunk": 0,
            "codec": "pickle",
            "nbytes": 512,
            "encode_s": 1e-5,
            "decode_s": 2e-5,
        }
        validate_trace_record(transport)
        assert chrome_trace(trace_records + [transport]) == chrome_trace(
            trace_records
        )

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
