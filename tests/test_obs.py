"""Tests for the repro.obs telemetry layer.

Covers the metrics registry (determinism, merging, Prometheus
exposition), the JSONL trace pipeline (schema validation, sampling,
aggregation back to SessionStats), cross-process aggregation of
metrics and span trees through the parallel engine, and the
``repro metrics`` / ``repro trace`` CLI surface.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from repro import __version__
from repro.cli import main
from repro.core.session import MeasurementSession
from repro.obs import (
    SNAPSHOT_SCHEMA,
    MetricsRegistry,
    Telemetry,
    TelemetrySpec,
    TraceSampler,
    TraceWriter,
    linear_buckets,
    log_buckets,
    merge_metric_snapshots,
    read_trace,
    render_prometheus,
    summarize_trace,
    validate_trace_record,
)
from repro.core.fleet import TagFleet
from repro.phy.channel import ChannelGeometry
from repro.runner import SessionSpec, run_sessions
from repro.sim.scenario import build_system, los_scenario
from tests.oracles import link as oracle


def _traced_session(path, *, queries=25, seed=5, metrics=True,
                    sampler=None):
    """One LOS session with live telemetry; returns (telemetry, stats)."""
    telemetry = Telemetry(
        metrics=metrics,
        writer=TraceWriter(str(path)) if path else None,
        sampler=sampler,
    )
    system, _ = los_scenario(4.0, seed=seed)
    telemetry.attach(system)
    session = MeasurementSession(system, rng=np.random.default_rng(seed + 1))
    stats = session.run_queries(queries)
    telemetry.close()
    return telemetry, stats


class TestBuckets:
    def test_linear_buckets(self):
        assert linear_buckets(0.0, 2.5, 4) == (2.5, 5.0, 7.5, 10.0)
        with pytest.raises(ValueError):
            linear_buckets(0.0, 0.0, 4)
        with pytest.raises(ValueError):
            linear_buckets(0.0, 1.0, 0)

    def test_log_buckets(self):
        edges = log_buckets(1e-3, 1.0, 13)
        assert edges[0] == pytest.approx(1e-3)
        assert edges[-1] == pytest.approx(1.0)
        assert all(a < b for a, b in zip(edges, edges[1:]))
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0, 5)


class TestMetricsRegistry:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        queries = registry.counter("q_total", "queries")
        queries.inc()
        queries.inc(3)
        assert registry.snapshot()["metrics"]["q_total"]["series"][0][
            "value"
        ] == 4
        with pytest.raises(ValueError):
            queries.inc(-1)

    def test_family_declarations_are_idempotent_but_typed(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "x")
        assert registry.counter("x_total", "x") is first
        with pytest.raises(ValueError):
            registry.gauge("x_total", "x")

    def test_label_validation(self):
        registry = MetricsRegistry()
        family = registry.counter("y_total", "y", labels=("outcome",))
        family.labels(outcome="hit").inc()
        with pytest.raises(ValueError):
            family.labels(other="hit")

    def test_observe_many_matches_sequential_observes(self):
        values = np.random.default_rng(3).uniform(0.0, 2.0, size=257)
        edges = linear_buckets(0, 0.25, 8)
        one = MetricsRegistry().histogram("h", edges)._default_child()
        many = MetricsRegistry().histogram("h", edges)._default_child()
        for v in values:
            one.observe(float(v))
        many.observe_many(values)
        assert one.counts == many.counts
        # Bitwise sum equality is the tier-invariance contract: the
        # batch path accumulates in scalar order.
        assert one.sum == many.sum

    def test_snapshot_roundtrip_merges_additively(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("c_total", "c").inc(5)
            registry.histogram("h", (1.0, 2.0)).observe(1.5)
            registry.gauge("g_max", "g").set(7.0)
            registry.gauge("g_sum", "g", aggregation="sum").set(2.0)
            return registry

        a, b = build(), build()
        merged = MetricsRegistry()
        merged.load_snapshot(a.snapshot())
        merged.load_snapshot(b.snapshot())
        snap = merged.snapshot()
        assert snap["schema"] == SNAPSHOT_SCHEMA
        metrics = snap["metrics"]
        assert metrics["c_total"]["series"][0]["value"] == 10
        assert metrics["h"]["series"][0]["count"] == 2
        assert metrics["g_max"]["series"][0]["value"] == 7.0
        assert metrics["g_sum"]["series"][0]["value"] == 4.0

    def test_merge_metric_snapshots_helper(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "c").inc(2)
        snap = registry.snapshot()
        merged = merge_metric_snapshots([snap, snap, snap])
        assert merged["metrics"]["c_total"]["series"][0]["value"] == 6


class TestPrometheusRendering:
    # A sample line is `name{label="v",...} value` or `name value`.
    _LINE = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
        r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*='
        r'"[^"]*")*\})?'
        r" -?(\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf)$"
    )

    def test_every_line_is_well_formed(self, tmp_path):
        telemetry, _ = _traced_session(None, queries=10)
        text = render_prometheus(telemetry.metrics_snapshot())
        lines = [line for line in text.splitlines() if line]
        assert lines, "exposition must not be empty"
        for line in lines:
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:]", line), line
            else:
                assert self._LINE.match(line), line

    def test_histogram_exposition_is_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", (1.0, 2.0), "h")
        for v in (0.5, 1.5, 3.0, 3.0):
            hist.observe(v)
        text = render_prometheus(registry.snapshot())
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("h_bucket")
        ]
        assert counts == [1, 2, 4]  # le=1, le=2, le=+Inf
        assert "h_count 4" in text
        assert counts == sorted(counts)

    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            render_prometheus({"schema": 99, "metrics": {}})


class TestTraceRoundtrip:
    def test_trace_validates_and_header_stamps_version(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _traced_session(path, queries=12)
        records = list(read_trace(str(path), validate=True))
        header = records[0]
        assert header["kind"] == "header"
        assert header["producer"] == "repro"
        assert header["version"] == __version__
        kinds = [r["kind"] for r in records]
        assert kinds.count("query") == 12
        assert kinds.count("session") == 1

    def test_summary_reproduces_session_stats_exactly(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _, stats = _traced_session(path, queries=30, seed=5)
        summary = summarize_trace(str(path))
        queries = summary["queries"]
        assert queries["count"] == stats.queries == 30
        assert queries["bits_sent"] == stats.bits_sent
        assert queries["bit_errors"] == stats.bit_errors
        assert queries["missed_triggers"] == stats.missed_triggers
        assert queries["ber"] == stats.ber
        session = summary["sessions"][0]
        assert session["queries"] == stats.queries
        assert session["elapsed_s"] == stats.elapsed_s

    def test_validate_rejects_malformed_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _traced_session(path, queries=2)
        good = next(
            r for r in read_trace(str(path)) if r["kind"] == "query"
        )
        with pytest.raises(ValueError, match="schema"):
            validate_trace_record({**good, "schema": 99})
        with pytest.raises(ValueError, match="missing field"):
            bad = dict(good)
            del bad["bitmap"]
            validate_trace_record(bad)
        with pytest.raises(ValueError, match="16 hex"):
            validate_trace_record({**good, "bitmap": "ff"})
        with pytest.raises(ValueError, match="kind"):
            validate_trace_record({**good, "kind": "mystery"})

    def test_schema_1_records_are_rejected(self, tmp_path):
        # Schema 2 replaced schema 1's cumulative session stage timings
        # with per-run spans, and dropped its ``transport`` kind.
        path = tmp_path / "t.jsonl"
        _traced_session(path, queries=2)
        session = next(
            r for r in read_trace(str(path)) if r["kind"] == "session"
        )
        assert session["schema"] == 2
        assert set(session["spans"]) == {"core.session"}
        with pytest.raises(ValueError, match="schema"):
            validate_trace_record({**session, "schema": 1})
        with pytest.raises(ValueError, match="kind"):
            validate_trace_record(
                {
                    "schema": 2,
                    "kind": "transport",
                    "chunk": 0,
                    "codec": "pickle",
                    "nbytes": 512,
                    "encode_s": 1e-5,
                    "decode_s": 2e-5,
                }
            )

    def test_read_trace_reports_bad_lines_with_location(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"schema": 1, "kind": "header"}\nnot json\n')
        with pytest.raises(ValueError, match=r"t\.jsonl:2"):
            list(read_trace(str(path)))


class TestTraceSampling:
    def test_keep_logic(self):
        sampler = TraceSampler(every_n=10, head=3)
        kept = [i for i in range(25) if sampler.keep(i)]
        assert kept == [0, 1, 2, 10, 20]
        assert not TraceSampler(every_n=0).keep(5)
        with pytest.raises(ValueError):
            TraceSampler(every_n=-1)

    def test_sampled_trace_keeps_head_and_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _traced_session(
            path,
            queries=30,
            sampler=TraceSampler(every_n=10, head=2, tail=3),
        )
        queries = [
            r for r in read_trace(str(path), validate=True)
            if r["kind"] == "query"
        ]
        indices = sorted(r["index"] for r in queries)
        # head 0-1, every 10th (0, 10, 20), and the last 3 dropped
        # records flushed at session end.
        assert indices == [0, 1, 10, 20, 27, 28, 29]


@pytest.mark.runner
def _query_records_sha256(path) -> tuple[int, str]:
    """Count and SHA-256 of a trace file's query records, as written."""
    lines = [
        line
        for line in path.read_text().splitlines()
        if json.loads(line).get("kind") == "query"
    ]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return len(lines), digest


class TestTraceRecordPins:
    """Query trace records of fixed-seed runs, byte for byte.

    The equivalence suites run engine and oracle through the same
    telemetry hooks, so a change to the hooks themselves moves both
    alike.  These pins hold the records (bitmaps, state and fading
    digests, cycle times) to the bytes they were recorded with.
    """

    SESSION_SHA256 = (
        "52966f16ba906dc79105996439a56cfe"
        "ed2ea39d86ecae60cf403a9ac877243e"
    )
    FLEET_SHA256 = (
        "41e238d90d00ce197cc4832a6b2ed60a"
        "109b13823cef81b580688f8f3a70321e"
    )

    @pytest.mark.parametrize("loop", ["engine", "oracle"])
    def test_session_query_records(self, tmp_path, loop):
        # The weak tag link misses triggers, and misaligned zero-bit
        # toggles draw collateral neighbours from the system generator.
        system, _ = build_system(ChannelGeometry.on_line(20.0, 10.0), seed=5)
        collateral_before = system.rng.bit_generator.state
        path = tmp_path / "session.jsonl"
        telemetry = Telemetry(writer=TraceWriter(str(path)))
        telemetry.attach(system)
        rng = np.random.default_rng(5)
        if loop == "engine":
            session = MeasurementSession(system, rng=rng, batch_queries=16)
        else:
            session = oracle.Session(system, rng=rng)
        stats = session.run_queries(40)
        telemetry.close()
        assert stats.missed_triggers > 0
        assert system.rng.bit_generator.state != collateral_before
        assert _query_records_sha256(path) == (40, self.SESSION_SHA256)

    def test_fleet_query_records(self, tmp_path):
        # on_cell_query: a five-responder broadcast, answered and
        # drained addressed queries, and idle ones.
        rng = np.random.default_rng(11)
        positions = np.column_stack(
            [rng.uniform(1.0, 9.0, 6), rng.uniform(-4.0, 4.0, 6)]
        )
        fleet = TagFleet.build(positions, seed=11)
        path = tmp_path / "fleet.jsonl"
        telemetry = Telemetry(writer=TraceWriter(str(path)))
        telemetry.attach_fleet(fleet)
        bits = np.random.default_rng(3)
        for i, name in enumerate(fleet.names[:-1]):
            n_bits = 5 if i == 0 else 100
            fleet.load_bits(name, bits.integers(0, 2, n_bits).tolist())
        responders = [len(fleet.run_query(address=None).responded)]
        responders += [len(r.responded) for r in fleet.poll_round().values()]
        responders.append(len(fleet.run_query(address=None).responded))
        responders += [len(r.responded) for r in fleet.poll_round().values()]
        telemetry.close()
        assert responders == [5, 0, 1, 1, 1, 1, 0] + [0] * 7
        assert _query_records_sha256(path) == (14, self.FLEET_SHA256)


class TestQueryHookSpan:
    def test_query_records_are_timed_apart_from_the_block_ack(
        self, tmp_path
    ):
        # on_query builds each query's trace record; its span is a
        # sibling of mac.block_ack, one call per query.
        telemetry, stats = _traced_session(tmp_path / "t.jsonl", queries=25)
        stages = telemetry.spans.snapshot()["core.session"]["children"]
        assert stages["obs.on_query"]["calls"] == stats.queries == 25
        assert stages["mac.block_ack"]["calls"] == 25


def _span_calls(tree):
    """A span tree with its wall-clock seconds left out."""
    return {
        name: {
            "calls": entry["calls"],
            "children": _span_calls(entry["children"]),
        }
        for name, entry in tree.items()
    }


class TestCrossProcessAggregation:
    def _run(self, n_workers):
        return run_sessions(
            SessionSpec(distance_m=3.0),
            4,
            queries=15,
            seed=11,
            n_workers=n_workers,
            chunk_size=1,  # pinned: chunk layout must match across runs
            telemetry=TelemetrySpec(metrics=True),
        )

    def test_serial_and_parallel_aggregate_identically(self):
        serial = self._run(1).telemetry
        parallel = self._run(2).telemetry
        assert serial.metrics_snapshot() == parallel.metrics_snapshot()
        assert serial.chunks == parallel.chunks == 4

    def test_span_calls_match_across_worker_counts(self):
        # Span seconds are wall-clock; span calls count work, so they
        # merge to the same tree for any worker count.
        serial = _span_calls(self._run(1).telemetry.spans())
        parallel = _span_calls(self._run(2).telemetry.spans())
        assert serial == parallel
        assert serial["runner.chunk"]["calls"] == 4

    def test_default_run_surfaces_stage_counters(self):
        # Even without metrics, per-worker spans are merged and
        # surfaced on the result.
        result = run_sessions(
            SessionSpec(), 2, queries=5, seed=3, n_workers=1
        )
        aggregate = result.telemetry
        assert aggregate is not None
        assert aggregate.metrics_snapshot() is None
        spans = aggregate.spans()
        assert set(spans) == {"runner.chunk"}
        unit = spans["runner.chunk"]["children"]["runner.unit"]
        session = unit["children"]["core.session"]
        assert session["calls"] == 2
        assert session["children"]["phy.error_model"]["calls"] > 0

    def test_aggregate_as_dict_is_stamped(self):
        payload = self._run(1).telemetry.as_dict()
        assert payload["schema"] == SNAPSHOT_SCHEMA
        assert payload["version"] == __version__
        assert payload["chunks"] == 4
        assert payload["metrics"]["metrics"]["witag_sessions_total"][
            "series"
        ][0]["value"] == 4


class TestCli:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_metrics_json_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main([
            "metrics", "--sessions", "1", "--queries", "10",
            "--format", "json", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        families = payload["metrics"]["metrics"]
        assert families["witag_queries_total"]["series"][0]["value"] == 10
        # Re-render the saved payload without running anything.
        capsys.readouterr()
        assert main([
            "metrics", "--input", str(out), "--format", "prometheus",
        ]) == 0
        text = capsys.readouterr().out
        assert "witag_queries_total 10" in text

    def test_metrics_table_output(self, capsys):
        assert main(["metrics", "--sessions", "1", "--queries", "5"]) == 0
        out = capsys.readouterr().out
        assert "witag_queries_total" in out
        assert "phy_effective_sinr" in out

    def test_trace_run_summary_tail(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        assert main([
            "trace", "run", str(trace), "--queries", "20",
            "--metrics-out", str(metrics),
        ]) == 0
        assert json.loads(metrics.read_text())["chunks"] == 1
        capsys.readouterr()
        assert main(["trace", "summary", str(trace), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["queries"]["count"] == 20
        assert summary["records"]["session"] == 1
        assert main([
            "trace", "tail", str(trace), "--records", "3",
            "--kind", "query",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(
            json.loads(line)["kind"] == "query" for line in lines
        )

    def test_trace_summary_rejects_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace", "summary", str(bad)]) == 2
        assert "bad trace" in capsys.readouterr().err

    def test_sweep_metrics_out(self, tmp_path):
        out = tmp_path / "sweep-metrics.json"
        assert main([
            "sweep", "--distances", "3", "--seconds", "0.05",
            "--metrics-out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        families = payload["metrics"]["metrics"]
        assert families["witag_queries_total"]["series"][0]["value"] > 0
