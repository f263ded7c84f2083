"""The engine's determinism contract, locked down.

``run_sweep(seed=s, n_workers=1)`` must equal ``n_workers=4``
bit-for-bit — BER values, received bitmaps, stats — for any sweep
shape, chunking, or executor choice; two runs with the same seed must
be identical; different seeds must differ.  These tests are the
contract's enforcement: if per-unit seeding ever picks up a dependence
on scheduling (shared generators, fork-time stream duplication,
completion-order assembly), they fail.
"""


import numpy as np
import pytest

from repro.core.session import MeasurementSession
from repro.runner import SweepSpec, UnitContext, run_sessions, run_sweep
from repro.seeding import child_sequence
from repro.sim.scenario import los_scenario

pytestmark = pytest.mark.runner


def rng_fingerprint(ctx: UnitContext) -> dict:
    """Pure-RNG work unit: raw draws expose any stream coupling."""
    draws = ctx.rng().integers(0, 2**31, size=8)
    more = ctx.rng(stream=3).random(4)
    return {
        "index": ctx.index,
        "seed": ctx.seed,
        "draws": draws.tolist(),
        "floats": more.tolist(),
    }


def session_unit(ctx: UnitContext) -> dict:
    """A real measurement session: BER, bitmaps and stats for one unit."""
    distance = ctx.parameters["distance_m"]
    system, _ = los_scenario(distance, seed=ctx.seed)
    session = MeasurementSession(system, rng=ctx.rng(1))
    stats = session.run_queries(4)
    return {
        "ber": stats.ber,
        "stats": (
            stats.bits_sent,
            stats.bit_errors,
            stats.elapsed_s,
            stats.queries,
            stats.missed_triggers,
        ),
        "bitmaps": [r.block_ack.bitmap for r in session.results],
        "received": [r.received_bits for r in session.results],
    }


def build_session(ctx: UnitContext) -> MeasurementSession:
    system, _ = los_scenario(2.0, seed=ctx.seed)
    return MeasurementSession(system, rng=ctx.rng(1))


SWEEP_SHAPES = [
    {"x": list(range(6))},
    {"x": [0, 1, 2], "y": ["a", "b"]},
    {"x": [1], "y": [2], "z": [3, 4, 5, 6, 7]},
]


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("axes", SWEEP_SHAPES)
    def test_rng_streams_identical_1_vs_4_workers(self, axes):
        spec = SweepSpec(axes=axes, seed=42)
        serial = run_sweep(rng_fingerprint, spec, n_workers=1)
        parallel = run_sweep(
            rng_fingerprint, spec, n_workers=4, executor="process"
        )
        assert serial.values == parallel.values
        assert [p.parameters for p in serial.points] == [
            p.parameters for p in parallel.points
        ]

    @pytest.mark.parametrize("chunk_size", [1, 2, 5, 100])
    def test_chunking_cannot_change_results(self, chunk_size):
        spec = SweepSpec(axes={"x": list(range(7))}, seed=9)
        baseline = run_sweep(rng_fingerprint, spec, n_workers=1)
        chunked = run_sweep(
            rng_fingerprint,
            spec,
            n_workers=3,
            chunk_size=chunk_size,
            executor="process",
        )
        assert baseline.values == chunked.values
        assert chunked.chunk_size == chunk_size

    def test_full_session_physics_identical_1_vs_4_workers(self):
        """BER, block-ACK bitmaps and SessionStats, bit-for-bit."""
        spec = SweepSpec(axes={"distance_m": [1.0, 4.0, 7.0]}, seed=5)
        serial = run_sweep(session_unit, spec, n_workers=1)
        parallel = run_sweep(
            session_unit, spec, n_workers=4, executor="process"
        )
        assert serial.values == parallel.values

    def test_run_sessions_identical_1_vs_4_workers(self):
        serial = run_sessions(
            build_session, 6, queries=3, seed=21, n_workers=1
        )
        parallel = run_sessions(
            build_session,
            6,
            queries=3,
            seed=21,
            n_workers=4,
            executor="process",
        )
        assert serial.values == parallel.values


class TestSeedSemantics:
    def test_same_seed_same_results(self):
        spec = SweepSpec(axes={"x": list(range(5))}, seed=7)
        a = run_sweep(rng_fingerprint, spec, n_workers=1)
        b = run_sweep(rng_fingerprint, spec, n_workers=1)
        assert a.values == b.values

    def test_different_seeds_differ(self):
        a = run_sweep(
            rng_fingerprint,
            SweepSpec(axes={"x": list(range(5))}, seed=1),
            n_workers=1,
        )
        b = run_sweep(
            rng_fingerprint,
            SweepSpec(axes={"x": list(range(5))}, seed=2),
            n_workers=1,
        )
        assert a.values != b.values

    def test_unit_streams_mutually_independent(self):
        """No two units of one sweep may share a stream."""
        result = run_sweep(
            rng_fingerprint,
            SweepSpec(axes={"x": list(range(8))}, seed=0),
            n_workers=1,
        )
        draw_sets = [tuple(v["draws"]) for v in result.values]
        assert len(set(draw_sets)) == len(draw_sets)

    def test_child_sequence_is_sibling_count_invariant(self):
        """The SeedSequence property the whole contract rests on."""
        root = np.random.SeedSequence(13)
        spawned = root.spawn(10)
        for index in (0, 3, 9):
            direct = child_sequence(13, index)
            assert (
                direct.generate_state(4).tolist()
                == spawned[index].generate_state(4).tolist()
            )


@pytest.mark.slow
class TestDeterminismBroad:
    """Wider shapes and worker counts; the quick suite covers the core."""

    @pytest.mark.parametrize("n_workers", [2, 3, 4, 6])
    @pytest.mark.parametrize(
        "axes",
        [
            {"x": list(range(17))},
            {"x": list(range(4)), "y": list(range(5))},
        ],
    )
    def test_many_layouts(self, n_workers, axes):
        spec = SweepSpec(axes=axes, seed=3)
        baseline = run_sweep(rng_fingerprint, spec, n_workers=1)
        layout = run_sweep(
            rng_fingerprint, spec, n_workers=n_workers, executor="process"
        )
        assert baseline.values == layout.values

    def test_long_session_sweep_identical(self):
        spec = SweepSpec(
            axes={"distance_m": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]},
            seed=31,
        )
        serial = run_sweep(session_unit, spec, n_workers=1)
        parallel = run_sweep(
            session_unit, spec, n_workers=4, executor="process"
        )
        assert serial.values == parallel.values


# -- wire-schema round trips (hypothesis) --------------------------------
#
# The job service ships these specs over HTTP, so the determinism
# contract extends to the wire: object -> JSON -> object -> JSON must
# be the identity for every valid spec, or a served sweep could drift
# from the direct run it must reproduce bit-for-bit.

import inspect
import json as _json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import RetryPolicy
from repro.runner.workers import SessionSpec
from repro.serve import (
    WORK_FUNCTIONS,
    JobRequest,
    job_request_from_json,
    job_request_to_json,
    retry_policy_from_json,
    retry_policy_to_json,
    session_spec_from_json,
    session_spec_to_json,
    sweep_spec_from_json,
    sweep_spec_to_json,
)

json_scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)

sweep_specs = st.builds(
    SweepSpec,
    axes=st.dictionaries(
        st.text(min_size=1, max_size=6),
        st.lists(json_scalars, min_size=1, max_size=4),
        min_size=1,
        max_size=3,
    ),
    seed=st.integers(min_value=-(2**62), max_value=2**62),
    chunk_size=st.one_of(st.none(), st.integers(1, 64)),
)

retry_policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(1, 10),
    timeout_s=st.one_of(
        st.none(),
        st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    ),
    backoff_s=st.floats(min_value=0.0, max_value=10.0),
    backoff_factor=st.floats(min_value=1.0, max_value=8.0),
    backoff_max_s=st.floats(min_value=0.0, max_value=100.0),
    jitter=st.floats(min_value=0.0, max_value=1.0),
    breaker_failures=st.integers(1, 5),
)

session_specs = st.builds(
    SessionSpec,
    kind=st.sampled_from(["los", "nlos"]),
    distance_m=st.floats(allow_nan=False, allow_infinity=False),
    location=st.text(min_size=1, max_size=8),
    phy_fast_path=st.booleans(),
    session_fast_path=st.booleans(),
    batch_queries=st.integers(1, 128),
    data_stream=st.integers(1, 8),
)


@st.composite
def sweep_job_requests(draw):
    # fn_kwargs names must be keywords of the drawn work function.
    fn = draw(st.sampled_from(sorted(WORK_FUNCTIONS)))
    keywords = [
        name
        for name, parameter in inspect.signature(
            WORK_FUNCTIONS[fn]
        ).parameters.items()
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY
    ]
    return JobRequest(
        kind="sweep",
        fn=fn,
        fn_kwargs=(
            draw(
                st.dictionaries(
                    st.sampled_from(keywords), json_scalars, max_size=2
                )
            )
            if keywords
            else {}
        ),
        sweep=draw(sweep_specs),
        n_workers=draw(st.integers(1, 8)),
        priority=draw(st.integers(-5, 5)),
        retry=draw(st.one_of(st.none(), retry_policies)),
    )


@st.composite
def session_job_requests(draw):
    by_queries = draw(st.booleans())
    return JobRequest(
        kind="sessions",
        sessions=draw(session_specs),
        n_sessions=draw(st.integers(1, 16)),
        queries=draw(st.integers(1, 100)) if by_queries else None,
        duration_s=(
            None
            if by_queries
            else draw(st.floats(min_value=1e-3, max_value=10.0))
        ),
        seed=draw(st.integers(min_value=-(2**62), max_value=2**62)),
        n_workers=draw(st.integers(1, 8)),
        chunk_size=draw(st.one_of(st.none(), st.integers(1, 32))),
        priority=draw(st.integers(-5, 5)),
        retry=draw(st.one_of(st.none(), retry_policies)),
    )


def wire(payload):
    """One HTTP hop: serialize and re-parse the JSON payload."""
    return _json.loads(_json.dumps(payload))


class TestWireSchemaRoundTrips:
    @settings(max_examples=50, deadline=None)
    @given(spec=sweep_specs)
    def test_sweep_spec_identity(self, spec):
        payload = sweep_spec_to_json(spec)
        assert sweep_spec_from_json(wire(payload)) == spec
        assert sweep_spec_to_json(sweep_spec_from_json(payload)) == (
            payload
        )

    @settings(max_examples=50, deadline=None)
    @given(spec=session_specs)
    def test_session_spec_identity(self, spec):
        payload = session_spec_to_json(spec)
        assert session_spec_from_json(wire(payload)) == spec
        assert session_spec_to_json(
            session_spec_from_json(payload)
        ) == payload

    @settings(max_examples=50, deadline=None)
    @given(policy=retry_policies)
    def test_retry_policy_identity(self, policy):
        payload = retry_policy_to_json(policy)
        assert retry_policy_from_json(wire(payload)) == policy
        assert retry_policy_to_json(
            retry_policy_from_json(payload)
        ) == payload

    @settings(max_examples=50, deadline=None)
    @given(request=sweep_job_requests())
    def test_sweep_job_request_identity(self, request):
        payload = job_request_to_json(request)
        assert job_request_from_json(wire(payload)) == request
        assert job_request_to_json(
            job_request_from_json(payload)
        ) == payload

    @settings(max_examples=50, deadline=None)
    @given(request=session_job_requests())
    def test_session_job_request_identity(self, request):
        payload = job_request_to_json(request)
        assert job_request_from_json(wire(payload)) == request
        assert job_request_to_json(
            job_request_from_json(payload)
        ) == payload
