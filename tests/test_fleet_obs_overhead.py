"""Telemetry overhead on the fleet fast path.

The fleet tier's cost contract mirrors the session-batch one
(``tests/test_obs_overhead.py``): without an attached telemetry the
fleet pays one ``is None`` check per poll, and a metrics-instrumented
poll round stays within 15% of the plain wall clock — the per-query
accounting happens once per query on the already-materialized batch
results, never inside the vectorized kernels.  Min-of-N on both sides
plus absolute slack keep the assertion robust on shared machines.
"""

import time

import numpy as np

from repro.core.fleet import TagFleet
from repro.obs import Telemetry

N_TAGS = 300
BITS_PER_TAG = 32
REPEATS = 3
MAX_OVERHEAD = 1.15
ABS_SLACK_S = 0.05


def timed_poll(instrument):
    rng = np.random.default_rng(5)
    positions = np.column_stack(
        [rng.uniform(1.0, 9.0, N_TAGS), rng.uniform(-4.0, 4.0, N_TAGS)]
    )
    fleet = TagFleet.build(positions, seed=5)
    telemetry = None
    if instrument:
        telemetry = Telemetry()
        telemetry.attach_fleet(fleet)
    data_rng = np.random.default_rng(3)
    for name in fleet.names:
        fleet.load_bits(
            name, [int(b) for b in data_rng.integers(0, 2, BITS_PER_TAG)]
        )
    start = time.perf_counter()
    fleet.poll_round()
    return time.perf_counter() - start, telemetry


def test_instrumented_fleet_poll_within_overhead_budget():
    plain = min(timed_poll(False)[0] for _ in range(REPEATS))
    instrumented = []
    for _ in range(REPEATS):
        wall, telemetry = timed_poll(True)
        # The capture must actually have instrumented the timed region.
        families = telemetry.metrics_snapshot()["metrics"]
        recorded = sum(
            entry["value"]
            for entry in families["fleet_queries_total"]["series"]
        )
        assert recorded == N_TAGS
        instrumented.append(wall)
    assert min(instrumented) <= plain * MAX_OVERHEAD + ABS_SLACK_S, (
        f"fleet telemetry overhead too high: {min(instrumented):.4f}s "
        f"instrumented vs {plain:.4f}s plain"
    )
