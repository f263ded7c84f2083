"""Bench smoke: one tiny session through each benchmark's machinery.

The real benchmarks under ``benchmarks/`` are wall-clock sensitive and
excluded from the default pytest split, which historically let their
plumbing rot between bench runs.  These smokes run the same code paths
— the shared :mod:`repro.bench` helpers, trajectory recording and
baseline bookkeeping — with one tiny session each, asserting only that
they run and record.  No timing assertions: tier-1 stays
timing-independent.
"""

import json

import pytest

from repro.bench import (
    TIERS,
    bench_payload,
    load_baseline,
    record_bench_trajectory,
    three_tier_bench,
    timed_session,
    update_baseline,
)


@pytest.mark.bench_smoke
def test_timed_session_runs_and_reports(tmp_path):
    result = timed_session(2, warmup=1)
    assert result["stats"].queries == 2
    assert result["wall_s"] > 0.0
    assert result["queries_per_s"] > 0.0
    assert set(result["stage_timings"]) == {"system", "error_model"}


@pytest.mark.bench_smoke
def test_three_tier_bench_smoke_records_trajectory(tmp_path):
    result = three_tier_bench(2, warmup=1)
    assert set(result["tiers"]) == {label for label, _, _ in TIERS}
    # Tiers 2 and 3 are bitwise identical; tier 1 only differs via the
    # coded-BER table.
    assert (
        result["tiers"]["vectorized"]["stats"]
        == result["tiers"]["session-batch"]["stats"]
    )
    for key in (
        "vectorized_vs_scalar",
        "session_vs_scalar",
        "session_vs_vectorized",
    ):
        assert result["speedups"][key] > 0.0

    trajectory = tmp_path / "BENCH_smoke.json"
    entry = record_bench_trajectory(
        str(trajectory), bench_payload(result)
    )
    assert "recorded_at" in entry
    history = json.loads(trajectory.read_text())
    assert isinstance(history, list) and len(history) == 1
    assert history[0]["queries"] == 2
    # Appending keeps prior entries.
    record_bench_trajectory(str(trajectory), bench_payload(result))
    assert len(json.loads(trajectory.read_text())) == 2


@pytest.mark.bench_smoke
def test_baseline_roundtrip_preserves_other_keys(tmp_path):
    path = str(tmp_path / "baselines.json")
    update_baseline("other", {"speedup": 1.0}, path)
    update_baseline("session_batch", {"speedup": 2.5}, path)
    assert load_baseline("other", path) == {"speedup": 1.0}
    assert load_baseline("session_batch", path) == {"speedup": 2.5}
    assert load_baseline("missing", path, {"d": 1}) == {"d": 1}
    update_baseline("session_batch", {"speedup": 3.0}, path)
    assert load_baseline("other", path) == {"speedup": 1.0}
    assert load_baseline("session_batch", path) == {"speedup": 3.0}


@pytest.mark.bench_smoke
def test_cli_bench_smoke_runs_and_records(tmp_path, capsys):
    from repro.cli import main

    trajectory = tmp_path / "BENCH_session_batch.json"
    baselines = tmp_path / "baselines.json"
    code = main(
        [
            "bench",
            "--queries",
            "2",
            "--trajectory",
            str(trajectory),
            "--update-baseline",
            "--baselines",
            str(baselines),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "session-batch" in out
    assert trajectory.exists()
    entry = load_baseline("session_batch", str(baselines))
    assert entry is not None and entry["queries"] == 2


@pytest.mark.bench_smoke
def test_trajectory_readers_tolerate_mixed_schemas(tmp_path):
    """Schema-1 entries (no schema field, no tier4 block) and schema-2
    entries (a tier4 block, no fleet block) must keep loading next to
    current entries in the same trajectory file."""
    from repro.bench import BENCH_SCHEMA, bench_check, fleet_bench

    trajectory = tmp_path / "BENCH_mixed.json"
    legacy = {
        # A pre-tier4 entry exactly as PR 5 recorded it: no "schema",
        # no "tier4", no "fleet".
        "queries": 2,
        "distance_m": 4.0,
        "seed": 0,
        "speedups": {"session_vs_vectorized": 2.2},
        "tiers": {},
        "recorded_at": "2026-01-01T00:00:00+00:00",
    }
    # A schema-2 entry as the retired `repro bench --tier4` mode wrote
    # it (warm pool + shm leg against the session-batch leg).
    with_tier4 = {
        "schema": 2,
        "queries": 2,
        "distance_m": 4.0,
        "seed": 0,
        "speedups": {"session_vs_vectorized": 2.2},
        "tiers": {},
        "tier4": {
            "jobs": 2,
            "sessions": 2,
            "queries": 3,
            "seed": 1,
            "n_workers": 1,
            "cold_parent": False,
            "identical": True,
            "speedup_tier4_vs_session_batch": 1.5,
            "legs": {
                "session-batch": {
                    "wall_s": 0.3,
                    "jobs_per_s": 6.7,
                    "sessions_per_s": 13.3,
                    "transport": "pickle",
                },
                "tier4": {
                    "wall_s": 0.2,
                    "jobs_per_s": 10.0,
                    "sessions_per_s": 20.0,
                    "transport": "shm",
                },
            },
        },
        "recorded_at": "2026-02-01T00:00:00+00:00",
    }
    trajectory.write_text(json.dumps([legacy, with_tier4]))

    result = three_tier_bench(2, warmup=1)
    fl = fleet_bench(n_tags=8, rounds=1, bits_per_tag=8, equivalence_tags=6)
    entry = record_bench_trajectory(
        str(trajectory), bench_payload(result, fleet=fl)
    )
    assert entry["schema"] == BENCH_SCHEMA
    assert "fleet" in entry and "tier4" not in entry

    history = json.loads(trajectory.read_text())
    assert len(history) == 3
    # Reader tolerance contract: treat a missing schema field as
    # schema 1, and the tier4/fleet blocks as optional.
    schemas = [e.get("schema", 1) for e in history]
    assert schemas == [1, 2, BENCH_SCHEMA]
    assert "tier4" not in history[0] and "fleet" not in history[0]
    assert history[1]["tier4"]["legs"]["tier4"]["wall_s"] > 0.0
    assert "fleet" not in history[1]
    assert history[2]["fleet"]["legs"]["fleet"]["wall_s"] > 0.0
    # The watchdog reads through the whole mixed file.
    assert bench_check(str(trajectory), str(tmp_path / "none.json"))["ok"]
    # Appending again on top of the mixed file still works.
    record_bench_trajectory(str(trajectory), bench_payload(result))
    assert len(json.loads(trajectory.read_text())) == 4


@pytest.mark.bench_smoke
@pytest.mark.fleet
def test_fleet_bench_smoke_gates_and_reports(tmp_path):
    """The fleet bench's machinery at toy scale: the equivalence gate
    (exact coding, digest-compared against the scalar reference cell)
    must pass, both timed legs must report, and the payload must be
    JSON-clean."""
    from repro.bench import fleet_bench, fleet_payload

    result = fleet_bench(
        n_tags=8, rounds=1, bits_per_tag=8, equivalence_tags=6
    )
    assert result["identical"] is True
    assert set(result["legs"]) == {"scalar", "fleet"}
    for leg in result["legs"].values():
        assert leg["wall_s"] > 0.0 and leg["queries_per_s"] > 0.0
    assert result["n_tags"] == 8 and result["rounds"] == 1
    assert result["speedup_fleet_vs_scalar"] > 0.0

    payload = fleet_payload(result)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["identical"] is True
    assert payload["n_tags"] == 8 and payload["equivalence_tags"] == 6


@pytest.mark.bench_smoke
@pytest.mark.fleet
def test_cli_bench_fleet_smoke_records_baseline(tmp_path, capsys):
    from repro.cli import main

    trajectory = tmp_path / "BENCH_session_batch.json"
    baselines = tmp_path / "baselines.json"
    code = main(
        [
            "bench",
            "--queries",
            "2",
            "--repeats",
            "1",
            "--fleet",
            "--fleet-tags",
            "8",
            "--fleet-bits",
            "8",
            "--fleet-aps",
            "2",
            "--trajectory",
            str(trajectory),
            "--update-baseline",
            "--baselines",
            str(baselines),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "speedup fleet/scalar" in out
    assert "warehouse scenario" in out
    entry = load_baseline("fleet", str(baselines))
    assert entry is not None
    assert entry["n_tags"] == 8
    assert entry["speedup_fleet_vs_scalar"] > 0.0
    history = json.loads(trajectory.read_text())
    assert history[-1]["fleet"]["n_tags"] == 8


@pytest.mark.bench_smoke
@pytest.mark.adaptive
def test_adaptive_bench_smoke_gates_and_reports():
    """The adaptive bench's machinery at toy scale: the execution-tier
    equivalence gate must pass, both policy legs must report, and the
    payload must be JSON-clean.  No quality assertion here — at this
    scale the adaptive scheme has no room to win; the pinned ratio is
    gated in ``repro bench check`` and benchmarks/."""
    from repro.bench import adaptive_bench, adaptive_payload

    result = adaptive_bench(
        1, 2, 40, n_workers=1, equivalence_rounds=1, equivalence_windows=25
    )
    assert result["identical"] is True
    assert set(result["gate_digests"]) == {
        "serial-scalar",
        "serial-batch",
        "process-batch",
    }
    assert set(result["legs"]) == {"static", "adaptive"}
    for leg in result["legs"].values():
        assert leg["wall_s"] > 0.0
        assert leg["delivered_bits"] >= 0
        assert leg["mean_goodput_bps"] >= 0.0
    assert result["goodput_ratio_adaptive_vs_static"] >= 0.0

    payload = adaptive_payload(result)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["identical"] is True
    assert "gate_digests" not in payload and "units" not in str(
        payload["legs"]
    )


@pytest.mark.bench_smoke
@pytest.mark.adaptive
def test_cli_bench_adaptive_smoke_records_baseline(tmp_path, capsys):
    from repro.cli import main

    trajectory = tmp_path / "BENCH_session_batch.json"
    baselines = tmp_path / "baselines.json"
    code = main(
        [
            "bench",
            "--queries",
            "2",
            "--repeats",
            "1",
            "--adaptive",
            "--adaptive-units",
            "1",
            "--adaptive-rounds",
            "2",
            "--adaptive-windows",
            "40",
            "--trajectory",
            str(trajectory),
            "--update-baseline",
            "--baselines",
            str(baselines),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "adaptive" in out
    entry = load_baseline("adaptive", str(baselines))
    assert entry is not None
    assert entry["units"] == 1
    assert entry["goodput_ratio_adaptive_vs_static"] > 0.0
    history = json.loads(trajectory.read_text())
    assert history[-1]["adaptive"]["units"] == 1
