"""CLI contract: every subcommand's exit codes, JSON shapes, streams.

The contract under test, for the whole ``repro`` surface:

* exit code 0 on success, 1 on a runtime failure, 2 on bad arguments;
* machine output (``--json`` / ``--format json`` / ``--print-config``)
  is valid JSON with a stable top-level shape;
* stderr hygiene — success writes nothing to stderr (diagnostics
  excepted where documented), failures explain themselves on stderr
  and keep stdout empty so pipelines never ingest half a table.

Everything runs ``repro.cli.main`` in-process: exit codes are the
function's return value, streams come from capsys, and no subprocess
startup cost lands on tier-1.
"""

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.serve


def run(capsys, argv):
    """Invoke the CLI; returns (exit_code, stdout, stderr)."""
    try:
        code = main(argv)
    except SystemExit as exit_:  # argparse paths (--version, errors)
        code = exit_.code if exit_.code is not None else 0
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_success(code, err):
    assert code == 0
    assert err == ""


class TestGlobalContract:
    def test_version(self, capsys):
        code, out, err = run(capsys, ["--version"])
        assert code == 0
        assert out.startswith("repro ")
        assert err == ""

    def test_unknown_subcommand_exits_2_via_stderr(self, capsys):
        code, out, err = run(capsys, ["frobnicate"])
        assert code == 2
        assert out == ""
        assert "invalid choice" in err

    def test_no_subcommand_exits_2(self, capsys):
        code, out, err = run(capsys, [])
        assert code == 2
        assert out == ""
        assert err != ""


class TestSweep:
    def test_success_prints_table_only_to_stdout(self, capsys):
        code, out, err = run(
            capsys,
            ["sweep", "--distances", "2,4", "--seconds", "0.02"],
        )
        assert_success(code, err)
        assert "LOS sweep" in out
        assert "wall" in out

    def test_bad_distances_exit_2(self, capsys):
        code, out, err = run(capsys, ["sweep", "--distances", "x"])
        assert code == 2
        assert out == ""
        assert "--distances" in err

    def test_bad_retry_options_exit_2(self, capsys):
        code, out, err = run(
            capsys,
            ["sweep", "--distances", "2", "--retries", "0"],
        )
        assert code == 2
        assert out == ""

    def test_permanent_fault_exit_1_with_diagnosis(self, capsys):
        # Distance 0 puts the tag on the client: unit 0 raises.
        code, out, err = run(
            capsys,
            [
                "sweep",
                "--distances",
                "0,2",
                "--seconds",
                "0.02",
                "--retries",
                "1",
            ],
        )
        assert code == 1
        assert "sweep failed" in err


class TestMetrics:
    def test_json_format_schema(self, capsys):
        code, out, err = run(
            capsys,
            [
                "metrics",
                "--sessions",
                "1",
                "--queries",
                "3",
                "--format",
                "json",
            ],
        )
        assert_success(code, err)
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert set(payload) >= {"schema", "version", "metrics", "stage"}

    def test_prometheus_format(self, capsys):
        code, out, err = run(
            capsys,
            [
                "metrics",
                "--sessions",
                "1",
                "--queries",
                "3",
                "--format",
                "prometheus",
            ],
        )
        assert_success(code, err)
        assert "# TYPE" in out

    def test_bad_format_exit_2(self, capsys):
        code, out, err = run(
            capsys, ["metrics", "--format", "yaml"]
        )
        assert code == 2
        assert out == ""


class TestTrace:
    def test_run_summary_tail_pipeline(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        code, out, err = run(
            capsys,
            ["trace", "run", str(trace), "--queries", "5"],
        )
        assert_success(code, err)
        assert trace.exists()

        code, out, err = run(
            capsys, ["trace", "summary", str(trace), "--json"]
        )
        assert_success(code, err)
        payload = json.loads(out)
        assert "records" in payload
        assert payload["records"]["query"] == 5

        code, out, err = run(
            capsys, ["trace", "tail", str(trace), "--records", "2"]
        )
        assert_success(code, err)
        assert out.strip()

    def test_missing_trace_exit_2(self, capsys):
        code, out, err = run(
            capsys, ["trace", "summary", "/nonexistent.jsonl"]
        )
        assert code == 2
        assert out == ""
        assert "bad trace" in err


class TestServe:
    def test_print_config_json(self, capsys):
        code, out, err = run(capsys, ["serve", "--print-config"])
        assert_success(code, err)
        payload = json.loads(out)
        assert set(payload) == {
            "host",
            "port",
            "slots",
            "spill_dir",
            "max_jobs",
        }
        assert payload["slots"] == 2

    def test_print_config_honors_flags(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            [
                "serve",
                "--port",
                "0",
                "--slots",
                "4",
                "--spill-dir",
                str(tmp_path),
                "--print-config",
            ],
        )
        assert_success(code, err)
        payload = json.loads(out)
        assert payload["slots"] == 4
        assert payload["spill_dir"] == str(tmp_path)

    def test_invalid_slots_exit_2(self, capsys):
        code, out, err = run(capsys, ["serve", "--slots", "0"])
        assert code == 2
        assert out == ""
        assert "slots" in err

    def test_invalid_port_exit_2(self, capsys):
        code, out, err = run(capsys, ["serve", "--port", "70000"])
        assert code == 2
        assert out == ""
        assert "port" in err


class TestReportingCommands:
    """The table-printing commands: success, stdout only."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["power"],
            ["compare"],
            ["throughput"],
            ["interference"],
            ["quickstart", "--message", "hi"],
            ["fig5", "--seconds", "0.02"],
            ["fig6", "--runs", "1", "--seconds", "0.05"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_success_and_stderr_silence(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert_success(code, err)
        assert out.strip()

    def test_pcap_writes_capture(self, capsys, tmp_path):
        target = tmp_path / "x.pcap"
        code, out, err = run(
            capsys, ["pcap", str(target), "--queries", "1"]
        )
        assert_success(code, err)
        assert target.exists()
        assert "frames" in out
