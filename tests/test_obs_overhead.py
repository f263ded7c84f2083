"""Telemetry overhead on the session-batch fast path.

The telemetry layer's cost contract: a simulator without an attached
:class:`repro.obs.Telemetry` pays one ``is None`` check per hook site,
and a fully instrumented run — metrics plus a sampled trace at
``every_n=100`` — stays within 15% of the uninstrumented wall clock.
Min-of-N wall clocks on both sides plus an absolute slack keep the
assertion robust on shared machines.
"""

import time

import numpy as np

from repro.core.session import MeasurementSession
from repro.obs import Telemetry, TraceSampler, TraceWriter
from repro.sim.scenario import los_scenario

QUERIES = 150
REPEATS = 3
#: Relative regression budget for metrics + every_n=100 tracing.
MAX_OVERHEAD = 1.15
#: Absolute slack (s) so scheduler noise on a ~0.1 s run can't flake.
ABS_SLACK_S = 0.05


def timed_queries(telemetry=None):
    """Wall seconds of ``QUERIES`` steady-state LOS queries at 4 m.

    Ten warm-up queries fill the channel caches and frame memo first;
    their results and counters are dropped, and ``telemetry`` (if any)
    is attached only after them, so it covers exactly the timed region.
    """
    system, _info = los_scenario(4.0, seed=0)
    session = MeasurementSession(system, rng=np.random.default_rng(1))
    session.run_queries(10)
    session.results.clear()
    system.counters.reset()
    system.error_model.counters.reset()
    if telemetry is not None:
        telemetry.attach(system)
    start = time.perf_counter()
    session.run_queries(QUERIES)
    return time.perf_counter() - start


def test_instrumented_session_within_overhead_budget(tmp_path):
    plain = min(timed_queries() for _ in range(REPEATS))
    instrumented = []
    for i in range(REPEATS):
        telemetry = Telemetry(
            writer=TraceWriter(str(tmp_path / f"trace{i}.jsonl")),
            sampler=TraceSampler(every_n=100),
        )
        wall_s = timed_queries(telemetry)
        telemetry.close()
        # The capture must actually have instrumented the timed region.
        snap = telemetry.metrics_snapshot()["metrics"]
        assert (
            snap["witag_queries_total"]["series"][0]["value"] == QUERIES
        )
        instrumented.append(wall_s)
    assert min(instrumented) <= plain * MAX_OVERHEAD + ABS_SLACK_S, (
        f"telemetry overhead too high: {min(instrumented):.4f}s "
        f"instrumented vs {plain:.4f}s plain"
    )
