"""``repro top``, multi-payload metrics merge, and exposition fidelity.

The offline halves of the observability surface:

* :mod:`repro.obs.top` — loading a metrics payload from disk and
  rendering it must work without a server, and the render must carry
  every series in the snapshot (that is what makes ``repro top
  --input`` a faithful text twin of ``/dash``).
* ``repro metrics --input A --input B`` — several payloads merge
  additively with full label-series algebra (union of label sets,
  summed counters, merged histogram buckets).
* Prometheus exposition fidelity — every counter/gauge series in a
  :class:`repro.obs.ServerMetrics` snapshot appears in
  ``render_prometheus`` with the same value, and label values
  containing backslashes, quotes and newlines survive the escaping
  round trip (property-based).
"""

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.obs import MetricsRegistry, ServerMetrics, render_prometheus
from repro.obs.top import load_status, render_status, run_top


def payload(counter_value, label, *, hist=()):
    """A minimal aggregated telemetry payload, as --metrics-out writes."""
    registry = MetricsRegistry()
    registry.counter("demo_total", "demo", labels=("kind",)).labels(
        kind=label
    ).inc(counter_value)
    family = registry.histogram("demo_seconds", (0.1, 1.0), "demo")
    for value in hist:
        family.labels().observe(value)
    return {
        "schema": 1,
        "version": "test",
        "chunks": 1,
        "metrics": registry.snapshot(),
    }


class TestTop:
    def test_load_status_accepts_payload_and_bare_snapshot(self, tmp_path):
        wrapped = tmp_path / "payload.json"
        wrapped.write_text(json.dumps(payload(3, "a")))
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(payload(3, "a")["metrics"]))
        for path in (wrapped, bare):
            status = load_status(str(path))
            assert status["health"] is None
            families = status["metrics"]["metrics"]
            assert (
                families["demo_total"]["series"][0]["value"] == 3.0
            )

    def test_load_status_rejects_metricless_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"values": [1, 2]}))
        with pytest.raises(ValueError, match="no metrics snapshot"):
            load_status(str(path))

    def test_render_carries_every_series(self, tmp_path):
        path = tmp_path / "payload.json"
        path.write_text(
            json.dumps(payload(7, "x", hist=[0.05, 0.5, 5.0]))
        )
        text = render_status(load_status(str(path)))
        assert "demo_total{kind=x}  7" in text
        assert "demo_seconds: count 3" in text
        # Three occupied buckets, one bar line each.
        assert text.count("#") >= 3
        assert str(path) in text

    def test_render_includes_server_sections(self):
        status = {
            "source": "http://x",
            "health": {
                "version": "1.0.0",
                "slots": 2,
                "queue_depth": 1,
                "jobs": {"running": 1, "queued": 1},
            },
            "jobs": [
                {
                    "id": "j1",
                    "kind": "sweep",
                    "state": "running",
                    "chunks_done": 2,
                    "n_chunks": 4,
                    "error": None,
                }
            ],
            "metrics": {"schema": 1, "metrics": {}},
        }
        text = render_status(status)
        assert "slots 2" in text and "queue depth 1" in text
        assert "queued=1" in text and "running=1" in text
        assert re.search(r"j1\s+sweep\s+running\s+2/4", text)

    def test_run_top_from_file_prints_once(self, tmp_path, capsys):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload(2, "b")))
        assert run_top(input_path=str(path)) == 0
        out = capsys.readouterr().out
        assert "demo_total{kind=b}  2" in out
        assert "\x1b[" not in out  # no clear-screen in one-shot mode

    def test_run_top_argument_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            run_top()
        with pytest.raises(ValueError, match="exactly one"):
            run_top(url="http://x", input_path="y")

    def test_cli_top_input(self, tmp_path, capsys):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload(4, "c")))
        assert main(["top", "--input", str(path)]) == 0
        assert "demo_total{kind=c}  4" in capsys.readouterr().out

    def test_cli_top_unreachable_server_fails_cleanly(self, capsys):
        assert (
            main(
                [
                    "top",
                    "--url",
                    "http://127.0.0.1:9",  # discard port: refused
                    "--once",
                ]
            )
            == 2
        )
        assert "repro top:" in capsys.readouterr().err


def legacy_payload(counter_value, label):
    """A payload as older versions wrote it, with a "transport" section."""
    transport = MetricsRegistry()
    transport.counter(
        "runner_chunk_bytes_total", "bytes", labels=("codec",)
    ).labels(codec="pickle").inc(512)
    return {**payload(counter_value, label), "transport": transport.snapshot()}


class TestLegacyTransportSection:
    """Payloads that carry a ``transport`` section load; it is ignored."""

    def test_top_ignores_it(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(legacy_payload(3, "a")))
        families = load_status(str(path))["metrics"]["metrics"]
        assert set(families) == {"demo_total", "demo_seconds"}
        assert main(["top", "--input", str(path)]) == 0

    @pytest.mark.parametrize("fmt", ["table", "prometheus"])
    def test_metrics_input_ignores_it(self, tmp_path, capsys, fmt):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(legacy_payload(3, "a")))
        assert main(["metrics", "--input", str(path), "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert "demo_total" in out
        assert "runner_chunk_bytes_total" not in out

    def test_merged_inputs_drop_it(self, tmp_path, capsys):
        paths = []
        for name, value in (("a", 3), ("b", 5)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(legacy_payload(value, name)))
            paths += ["--input", str(path)]
        assert main(["metrics", *paths, "--format", "json"]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert set(merged) == {"metrics", "chunks", "version"}


class TestMetricsInputMerge:
    def test_two_payloads_merge_label_series(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(payload(3, "alpha", hist=[0.05])))
        b = tmp_path / "b.json"
        b.write_text(
            json.dumps(payload(5, "beta", hist=[0.5, 5.0]))
        )
        both = tmp_path / "both.json"
        both.write_text(json.dumps(payload(10, "alpha")))
        assert (
            main(
                [
                    "metrics",
                    "--input",
                    str(a),
                    "--input",
                    str(b),
                    "--input",
                    str(both),
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        merged = json.loads(capsys.readouterr().out)
        assert merged["chunks"] == 3
        series = {
            entry["labels"]["kind"]: entry["value"]
            for entry in merged["metrics"]["metrics"]["demo_total"][
                "series"
            ]
        }
        assert series == {"alpha": 13.0, "beta": 5.0}
        hist = merged["metrics"]["metrics"]["demo_seconds"]["series"][0]
        assert hist["count"] == 3
        assert hist["counts"] == [1, 1, 1]

    def test_single_input_is_unchanged(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        original = payload(3, "alpha")
        a.write_text(json.dumps(original))
        assert (
            main(["metrics", "--input", str(a), "--format", "json"]) == 0
        )
        assert json.loads(capsys.readouterr().out) == original

    def test_metricless_input_fails(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(payload(1, "a")))
        b = tmp_path / "b.json"
        b.write_text(json.dumps({"no": "metrics"}))
        assert (
            main(
                [
                    "metrics",
                    "--input",
                    str(a),
                    "--input",
                    str(b),
                    "--format",
                    "json",
                ]
            )
            == 2
        )
        assert "no metrics snapshot" in capsys.readouterr().err


def parse_exposition(text):
    """Sample lines of a Prometheus exposition as {series: value}."""
    samples = {}
    for line in text.split("\n"):
        if not line or line.startswith("#"):
            continue
        key, value = line.rsplit(" ", 1)
        samples[key] = float(value)
    return samples


class TestServerMetricsExposition:
    def test_every_snapshot_series_is_exposed(self):
        metrics = ServerMetrics()
        metrics.job_submitted("sweep")
        metrics.job_submitted("sweep")
        metrics.job_submitted("sessions")
        metrics.set_job_states({"running": 1, "queued": 2})
        metrics.set_queue_depth(2)
        metrics.chunk_completed(0.25, resumed=False)
        metrics.chunk_completed(0.5, resumed=True)
        metrics.event_streamed()
        snapshot = metrics.snapshot()
        samples = parse_exposition(metrics.render_prometheus())
        checked = 0
        for name, family in snapshot["metrics"].items():
            for entry in family["series"]:
                labels = "".join(
                    f'{k}="{v}"' for k, v in entry["labels"].items()
                )
                if family["type"] == "histogram":
                    key = (
                        f"{name}_count{{{labels}}}"
                        if labels
                        else f"{name}_count"
                    )
                    assert samples[key] == entry["count"], name
                else:
                    key = f"{name}{{{labels}}}" if labels else name
                    assert samples[key] == entry["value"], name
                checked += 1
        assert checked >= 10  # submitted kinds + 5 states + the rest


LABEL_VALUES = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_categories=("Cs",)
    ),
    max_size=30,
)


def unescape_label(value):
    out = []
    i = 0
    while i < len(value):
        if value[i] == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}[nxt])
            i += 2
        else:
            out.append(value[i])
            i += 1
    return "".join(out)


class TestLabelEscaping:
    @given(LABEL_VALUES)
    def test_label_values_round_trip_through_exposition(self, value):
        # The exposition format frames samples on "\n" alone (other
        # vertical whitespace passes through inside quoted labels), so
        # the parse here splits exactly as a scraper would.
        registry = MetricsRegistry()
        registry.counter("demo_total", "", labels=("tag",)).labels(
            tag=value
        ).inc()
        text = render_prometheus(registry.snapshot())
        sample = next(
            line
            for line in text.split("\n")
            if line.startswith("demo_total{")
        )
        match = re.fullmatch(
            r'demo_total\{tag="(.*)"\} 1', sample, flags=re.DOTALL
        )
        assert match is not None, sample
        assert "\n" not in sample
        assert unescape_label(match.group(1)) == value

    def test_awkward_values_stay_single_line(self):
        registry = MetricsRegistry()
        family = registry.counter("demo_total", "", labels=("tag",))
        awkward = ['a\\b', 'say "hi"', "line\nbreak", '\\n"']
        for value in awkward:
            family.labels(tag=value).inc()
        text = render_prometheus(registry.snapshot())
        sample_lines = [
            line
            for line in text.split("\n")
            if line and not line.startswith("#")
        ]
        assert len(sample_lines) == len(awkward)
