"""Adaptive-link benchmark: traffic-aware scheduling + adaptive FEC
vs the static paper scheme, gated on goodput quality.

Unlike the timing benchmarks around it, this gate measures a *quality*
ratio: mean goodput (correct message bits per second of tag existence)
of the adaptive leg — predictive opportunity scheduler plus the
Reed-Solomon redundancy ladder — over the static-paper leg, which
rides every transmission opportunity at one fixed redundancy.  Both
legs run the same deterministic seeds under the same bursty ON/OFF
ambient traffic, so the measured ratio is reproducible, not
wall-clock-noise.

``adaptive_bench`` runs an execution-tier equivalence gate before any
comparison (scalar vs batch session engine vs process pool, digest
compared), mirroring ``fleet_bench``.  This test then
asserts the ratio floor ``max(1.0, 0.8 * baseline)`` where ``baseline``
is the ``goodput_ratio_adaptive_vs_static`` recorded in
``benchmarks/baselines.json`` by ``repro bench --adaptive
--update-baseline`` — i.e. the adaptive scheme must keep beating the
paper-static scheme under dynamic traffic.

Marked ``bench``: excluded from the default pytest split, run with
``pytest benchmarks/test_adaptive.py -m bench``.  The tiny
``bench_smoke`` twin in ``tests/test_bench_smoke.py`` keeps the
machinery exercised by tier-1.
"""

import os

import pytest

from conftest import print_banner
from repro.analysis.reporting import Table
from repro.bench import (
    adaptive_bench,
    bench_payload,
    load_baseline,
    record_bench_trajectory,
    three_tier_bench,
)

UNITS = 3
ROUNDS = 6
WINDOWS_PER_ROUND = 100
SEED = 0

_BENCH_DIR = os.path.dirname(__file__)
_BASELINES = os.path.join(_BENCH_DIR, "baselines.json")
_TRAJECTORY = os.path.join(_BENCH_DIR, "BENCH_session_batch.json")


@pytest.mark.bench
@pytest.mark.adaptive
def test_adaptive_goodput_beats_static(benchmark):
    result = benchmark.pedantic(
        lambda: adaptive_bench(
            UNITS, ROUNDS, WINDOWS_PER_ROUND, seed=SEED
        ),
        rounds=1,
        iterations=1,
    )
    legs = result["legs"]
    ratio = result["goodput_ratio_adaptive_vs_static"]

    baseline_entry = load_baseline("adaptive", _BASELINES)
    baseline = (
        float(baseline_entry["goodput_ratio_adaptive_vs_static"])
        if baseline_entry
        else 1.0
    )
    floor = max(1.0, 0.8 * baseline)

    # Record the trajectory before asserting: a regression run still
    # leaves its numbers behind for the post-mortem.
    context = three_tier_bench(16, distance_m=4.0, seed=SEED, repeats=1)
    payload = bench_payload(context, adaptive=result)
    payload["floor_adaptive"] = floor
    payload["baseline_goodput_ratio"] = baseline
    record_bench_trajectory(_TRAJECTORY, payload)
    benchmark.extra_info["adaptive"] = payload["adaptive"]

    print_banner(
        "adaptive link: predictive scheduling + FEC ladder vs static paper"
    )
    table = Table(
        f"{UNITS} units x {ROUNDS} rounds x {WINDOWS_PER_ROUND} windows, "
        f"seed {SEED} (equivalence-gated)",
        ["scheme", "delivered bits", "goodput (bit/s)", "uJ/bit"],
    )
    for scheme in ("static", "adaptive"):
        leg = legs[scheme]
        table.add_row(
            [
                scheme,
                leg["delivered_bits"],
                leg["mean_goodput_bps"],
                leg["mean_energy_per_bit_uj"],
            ]
        )
    print(table.render())
    print(
        f"goodput adaptive/static {ratio:.2f}x "
        f"(floor {floor:.2f}x from baseline {baseline:.2f}x); "
        f"energy static/adaptive "
        f"{result['energy_ratio_static_vs_adaptive']:.2f}x; "
        f"adaptive wins {result['adaptive_wins']}/{UNITS} units"
    )

    # Correctness before quality: adaptive_bench already raised if the
    # tier digests diverged; restate the invariant loudly here.
    assert result["identical"], "adaptive link diverged across tiers"

    # The quality gate (ISSUE: adaptive must beat static under bursty
    # traffic; enforced floor is max(1.0, 0.8 * recorded baseline)).
    assert ratio >= floor, (
        f"adaptive link regressed: {ratio:.2f}x < {floor:.2f}x "
        f"(baseline {baseline:.2f}x)"
    )
    # The win must also hold per-unit on the majority of deployments.
    assert result["adaptive_wins"] * 2 > UNITS

    # The energy story must not invert: the adaptive tag never spends
    # more energy per delivered bit than the ride-everything baseline.
    assert result["energy_ratio_static_vs_adaptive"] >= 1.0
