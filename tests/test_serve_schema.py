"""JSON codec contract for the job service: specs and results.

The wire schema's invariant is round-trip identity in both directions
(``from_json(to_json(x)) == x`` and canonical payloads survive
``to_json(from_json(p)) == p``), plus strict rejection of anything
malformed — a bad submission must die at the HTTP boundary with a
message naming the offending field, never inside a worker.
"""

import json
import re

import pytest

from repro.runner import RetryPolicy, SweepSpec
from repro.runner.workers import SessionSpec
from repro.serve import (
    JobRequest,
    SchemaError,
    job_request_from_json,
    job_request_to_json,
    result_to_json,
    retry_policy_from_json,
    retry_policy_to_json,
    session_spec_from_json,
    session_spec_to_json,
    sweep_spec_from_json,
    sweep_spec_to_json,
)
from repro.serve.schema import value_to_json

pytestmark = pytest.mark.serve


def rt_sweep(spec):
    return sweep_spec_from_json(sweep_spec_to_json(spec))


class TestSpecRoundTrips:
    def test_sweep_spec_round_trip(self):
        spec = SweepSpec(
            axes={"distance_m": [1.0, 2.5, 7.125], "mode": ["a", "b"]},
            seed=42,
            chunk_size=3,
        )
        assert rt_sweep(spec) == spec

    def test_sweep_spec_survives_wire_json(self):
        spec = SweepSpec(axes={"x": [0.1, 0.2, 0.30000000000000004]})
        wire = json.loads(json.dumps(sweep_spec_to_json(spec)))
        assert sweep_spec_from_json(wire) == spec

    def test_sweep_axis_order_preserved(self):
        spec = SweepSpec(axes={"b": [1], "a": [2]})
        assert list(rt_sweep(spec).axes) == ["b", "a"]

    def test_session_spec_round_trip(self):
        spec = SessionSpec(
            kind="nlos",
            location="below",
            batch_queries=16,
        )
        assert (
            session_spec_from_json(session_spec_to_json(spec)) == spec
        )

    def test_retry_policy_round_trip(self):
        policy = RetryPolicy(
            max_attempts=5,
            timeout_s=2.5,
            backoff_s=0.125,
            backoff_factor=2.0,
            jitter=0.25,
        )
        assert (
            retry_policy_from_json(retry_policy_to_json(policy))
            == policy
        )

    def test_job_request_round_trip_sweep(self):
        request = JobRequest(
            kind="sweep",
            fn="rng_probe",
            sweep=SweepSpec(axes={"i": [1, 2, 3, 4]}, seed=7),
            n_workers=2,
            priority=5,
            retry=RetryPolicy(max_attempts=2),
        )
        payload = job_request_to_json(request)
        assert job_request_from_json(payload) == request
        # canonical payloads are a fixed point
        assert job_request_to_json(job_request_from_json(payload)) == (
            payload
        )

    def test_job_request_round_trip_sessions(self):
        request = JobRequest(
            kind="sessions",
            sessions=SessionSpec(kind="los", distance_m=3.0),
            n_sessions=4,
            queries=20,
            seed=11,
            chunk_size=2,
        )
        payload = job_request_to_json(request)
        assert job_request_from_json(payload) == request
        assert job_request_to_json(job_request_from_json(payload)) == (
            payload
        )


class TestStrictValidation:
    def test_unknown_job_key(self):
        with pytest.raises(SchemaError, match="unknown key"):
            job_request_from_json(
                {"sweep": {"axes": {"x": [1]}}, "bogus": 1}
            )

    def test_bad_kind(self):
        with pytest.raises(SchemaError, match="kind"):
            job_request_from_json({"kind": "mapreduce"})

    def test_sweep_job_rejects_session_keys(self):
        with pytest.raises(SchemaError, match="does not apply"):
            job_request_from_json(
                {"sweep": {"axes": {"x": [1]}}, "n_sessions": 3}
            )

    def test_sessions_job_rejects_sweep_keys(self):
        with pytest.raises(SchemaError, match="does not apply"):
            job_request_from_json(
                {
                    "kind": "sessions",
                    "sessions": {},
                    "n_sessions": 1,
                    "queries": 5,
                    "fn": "rng_probe",
                }
            )

    def test_unregistered_work_function(self):
        with pytest.raises(SchemaError, match="unknown work function"):
            job_request_from_json(
                {"fn": "os.system", "sweep": {"axes": {"x": [1]}}}
            )

    def test_sessions_needs_exactly_one_length(self):
        base = {"kind": "sessions", "sessions": {}, "n_sessions": 2}
        with pytest.raises(SchemaError, match="exactly one"):
            job_request_from_json(base)
        with pytest.raises(SchemaError, match="exactly one"):
            job_request_from_json(
                {**base, "queries": 5, "duration_s": 0.5}
            )

    def test_bool_is_not_an_int(self):
        with pytest.raises(SchemaError, match="seed"):
            sweep_spec_from_json({"axes": {"x": [1]}, "seed": True})

    def test_non_finite_axis_value(self):
        with pytest.raises(SchemaError, match="finite"):
            sweep_spec_from_json(
                {"axes": {"x": [float("inf")]}}
            )

    def test_empty_axes(self):
        with pytest.raises(SchemaError, match="axes"):
            sweep_spec_from_json({"axes": {}})

    def test_axis_values_must_be_list(self):
        with pytest.raises(SchemaError, match="non-empty JSON list"):
            sweep_spec_from_json({"axes": {"x": 3}})

    def test_retry_rejects_unknown_key(self):
        with pytest.raises(SchemaError, match="unknown key"):
            retry_policy_from_json({"attempts": 3})

    def test_retry_rejects_engine_invalid_values(self):
        with pytest.raises(SchemaError, match="max_attempts"):
            retry_policy_from_json({"max_attempts": 0})

    def test_sessions_spec_rejects_bad_bool(self):
        with pytest.raises(SchemaError, match="phy_fast_path"):
            session_spec_from_json({"phy_fast_path": 1})

    def test_fn_kwargs_scalars_only(self):
        with pytest.raises(SchemaError, match="fn_kwargs"):
            job_request_from_json(
                {
                    "sweep": {"axes": {"x": [1]}},
                    "fn_kwargs": {"sim_seconds": [0.1]},
                }
            )

    @pytest.mark.parametrize(
        "payload,named",
        [
            (
                {
                    "fn": "los_ber_point",
                    "fn_kwargs": {"phy_fast_path": False},
                    "sweep": {"axes": {"distance_m": [1.0]}},
                },
                "fn_kwargs['phy_fast_path']",
            ),
            (
                {
                    "kind": "sessions",
                    "sessions": {"session_fast_path": True},
                    "n_sessions": 1,
                    "queries": 5,
                },
                "session_fast_path",
            ),
        ],
        ids=["fn_kwargs", "sessions"],
    )
    def test_removed_engine_switches_are_refused(self, payload, named):
        # The scalar-loop switches are gone; a job naming one is a
        # client error that names the key, not a silent no-op.
        with pytest.raises(SchemaError, match=re.escape(named)):
            job_request_from_json(payload)

    def test_fn_kwargs_names_must_be_keywords_of_fn(self):
        # A name the work function does not take is refused at submit
        # time, not as a TypeError inside the first work unit.
        with pytest.raises(SchemaError) as error:
            job_request_from_json(
                {
                    "fn": "los_ber_point",
                    "fn_kwargs": {"warm": True},
                    "sweep": {"axes": {"distance_m": [1.0]}},
                }
            )
        message = str(error.value)
        assert "fn_kwargs['warm']" in message
        assert "sim_seconds" in message
        assert "phy_fast_path" not in message
        request = job_request_from_json(
            {
                "fn": "los_ber_point",
                "fn_kwargs": {"sim_seconds": 0.1},
                "sweep": {"axes": {"distance_m": [1.0]}},
            }
        )
        assert request.fn_kwargs == {"sim_seconds": 0.1}

    def test_n_workers_minimum(self):
        with pytest.raises(SchemaError, match="n_workers"):
            job_request_from_json(
                {"sweep": {"axes": {"x": [1]}}, "n_workers": 0}
            )


class TestResultPayload:
    def test_result_payload_is_json_and_exact(self):
        from repro.runner import run_sweep
        from repro.runner.workers import rng_probe

        spec = SweepSpec(axes={"i": [0, 1, 2]}, seed=3)
        result = run_sweep(rng_probe, spec)
        payload = result_to_json(result)
        wire = json.loads(json.dumps(payload))
        assert wire == payload
        assert wire["seed"] == 3
        assert len(wire["points"]) == 3
        # float draws survive the wire bit-for-bit
        assert wire["points"][0]["value"]["draws"] == (
            result.points[0].value["draws"]
        )

    def test_value_to_json_session_stats(self):
        from repro.core.session import SessionStats

        stats = SessionStats(
            bits_sent=62,
            bit_errors=3,
            elapsed_s=0.5,
            queries=1,
            missed_triggers=0,
        )
        payload = value_to_json(stats)
        assert payload["ber"] == stats.ber
        assert payload["throughput_bps"] == stats.throughput_bps

    def test_value_to_json_exotic_degrades_to_repr(self):
        payload = value_to_json(object())
        assert set(payload) == {"repr"}
