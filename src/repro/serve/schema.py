"""JSON schema for job submissions: specs in, results out, bit-for-bit.

The job server accepts work over HTTP as JSON, so every spec the
engine understands needs a JSON codec with a hard round-trip contract:

    ``from_json(to_json(spec)) == spec`` **and**
    ``to_json(from_json(payload)) == payload``

for every valid spec/payload — object → JSON → object → JSON is the
identity.  Python's ``json`` module round-trips float64 exactly (its
float repr is shortest-exact), so a spec that crosses the wire drives
the engine to the same bit-identical results a direct
:func:`repro.runner.run_sweep` call produces.

Validation is strict: unknown keys, wrong types, unregistered work
functions and keywords a work function does not take raise
:class:`SchemaError` with a message naming the bad field, so clients
get a 400 with a usable diagnosis instead of a worker-side stack trace
minutes later.

Work functions cannot travel as code (the server will not unpickle or
``eval`` anything a client sends); instead clients name one of the
registered :data:`WORK_FUNCTIONS` — the same picklable functions the
CLI and benchmarks use — and pass keyword arguments as JSON scalars.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..runner.engine import SweepResult, SweepSpec
from ..runner.faults import RetryPolicy
from ..runner.workers import (
    SessionSpec,
    los_ber_point,
    nlos_session_stats,
    rng_probe,
)

__all__ = [
    "JOB_SCHEMA",
    "SchemaError",
    "WORK_FUNCTIONS",
    "JobRequest",
    "job_request_from_json",
    "job_request_to_json",
    "result_to_json",
    "retry_policy_from_json",
    "retry_policy_to_json",
    "session_spec_from_json",
    "session_spec_to_json",
    "sweep_spec_from_json",
    "sweep_spec_to_json",
    "value_to_json",
]

#: Job/request JSON schema version (stamped on server payloads).
JOB_SCHEMA = 1

#: Work functions a job may name.  All draw randomness exclusively
#: from their :class:`~repro.runner.engine.UnitContext`, so any job
#: built on them inherits the engine's determinism contract.
WORK_FUNCTIONS: dict[str, Callable] = {
    "los_ber_point": los_ber_point,
    "nlos_session_stats": nlos_session_stats,
    "rng_probe": rng_probe,
}


class SchemaError(ValueError):
    """A JSON payload does not match the job/spec schema."""


def _check_keys(
    payload: Mapping[str, Any],
    allowed: frozenset[str],
    required: frozenset[str],
    where: str,
) -> None:
    if not isinstance(payload, Mapping):
        raise SchemaError(f"{where} must be a JSON object")
    unknown = set(payload) - allowed
    if unknown:
        raise SchemaError(
            f"{where} has unknown key(s): {', '.join(sorted(unknown))}"
        )
    missing = required - set(payload)
    if missing:
        raise SchemaError(
            f"{where} is missing required key(s): "
            f"{', '.join(sorted(missing))}"
        )


def _check_int(value: Any, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{where} must be >= {minimum}, got {value}")
    return value


def _check_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise SchemaError(f"{where} must be finite, got {value!r}")
    return float(value)


def _check_scalar(value: Any, where: str) -> Any:
    """A JSON scalar (bool, int, finite float, or string), unchanged."""
    if isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise SchemaError(f"{where} must be finite, got {value!r}")
        return value
    raise SchemaError(
        f"{where} must be a JSON scalar (bool/int/float/string), "
        f"got {type(value).__name__}"
    )


# -- RetryPolicy ---------------------------------------------------------

_RETRY_KEYS = frozenset(
    {
        "max_attempts",
        "timeout_s",
        "backoff_s",
        "backoff_factor",
        "backoff_max_s",
        "jitter",
        "breaker_failures",
    }
)


def retry_policy_to_json(policy: RetryPolicy) -> dict[str, Any]:
    """Encode a :class:`repro.runner.RetryPolicy` as a JSON dict."""
    return {
        "max_attempts": policy.max_attempts,
        "timeout_s": policy.timeout_s,
        "backoff_s": policy.backoff_s,
        "backoff_factor": policy.backoff_factor,
        "backoff_max_s": policy.backoff_max_s,
        "jitter": policy.jitter,
        "breaker_failures": policy.breaker_failures,
    }


def retry_policy_from_json(payload: Mapping[str, Any]) -> RetryPolicy:
    """Decode :func:`retry_policy_to_json` output (strict)."""
    _check_keys(payload, _RETRY_KEYS, frozenset(), "retry")
    kwargs: dict[str, Any] = {}
    if "max_attempts" in payload:
        kwargs["max_attempts"] = _check_int(
            payload["max_attempts"], "retry.max_attempts", 1
        )
    if "timeout_s" in payload and payload["timeout_s"] is not None:
        kwargs["timeout_s"] = _check_number(
            payload["timeout_s"], "retry.timeout_s"
        )
    for key in ("backoff_s", "backoff_factor", "backoff_max_s", "jitter"):
        if key in payload:
            kwargs[key] = _check_number(payload[key], f"retry.{key}")
    if "breaker_failures" in payload:
        kwargs["breaker_failures"] = _check_int(
            payload["breaker_failures"], "retry.breaker_failures", 1
        )
    try:
        return RetryPolicy(**kwargs)
    except ValueError as error:
        raise SchemaError(f"retry: {error}") from error


# -- SweepSpec -----------------------------------------------------------

_SWEEP_KEYS = frozenset({"axes", "seed", "chunk_size"})


def sweep_spec_to_json(spec: SweepSpec) -> dict[str, Any]:
    """Encode a :class:`repro.runner.SweepSpec` as a JSON dict.

    Axis values must already be JSON scalars; the sweep grid is the
    Cartesian product in axis insertion order, and JSON objects
    preserve insertion order, so the grid survives the round trip.
    """
    axes: dict[str, list[Any]] = {}
    for name, values in spec.axes.items():
        axes[name] = [
            _check_scalar(v, f"axes[{name!r}]") for v in values
        ]
    return {"axes": axes, "seed": spec.seed, "chunk_size": spec.chunk_size}


def sweep_spec_from_json(payload: Mapping[str, Any]) -> SweepSpec:
    """Decode :func:`sweep_spec_to_json` output (strict)."""
    _check_keys(payload, _SWEEP_KEYS, frozenset({"axes"}), "sweep")
    axes_payload = payload["axes"]
    if not isinstance(axes_payload, Mapping) or not axes_payload:
        raise SchemaError("sweep.axes must be a non-empty JSON object")
    axes: dict[str, list[Any]] = {}
    for name, values in axes_payload.items():
        if not isinstance(name, str) or not name:
            raise SchemaError(f"axis name {name!r} must be a string")
        if not isinstance(values, list) or not values:
            raise SchemaError(
                f"axes[{name!r}] must be a non-empty JSON list"
            )
        axes[name] = [
            _check_scalar(v, f"axes[{name!r}]") for v in values
        ]
    seed = _check_int(payload.get("seed", 0), "sweep.seed")
    chunk_size = payload.get("chunk_size")
    if chunk_size is not None:
        chunk_size = _check_int(chunk_size, "sweep.chunk_size", 1)
    try:
        return SweepSpec(axes=axes, seed=seed, chunk_size=chunk_size)
    except ValueError as error:
        raise SchemaError(f"sweep: {error}") from error


# -- SessionSpec ---------------------------------------------------------

_SESSION_KEYS = frozenset(
    {
        "kind",
        "distance_m",
        "location",
        "phy_fast_path",
        "session_fast_path",
        "batch_queries",
        "data_stream",
    }
)


def session_spec_to_json(spec: SessionSpec) -> dict[str, Any]:
    """Encode a :class:`repro.runner.SessionSpec` as a JSON dict."""
    return {
        "kind": spec.kind,
        "distance_m": spec.distance_m,
        "location": spec.location,
        "phy_fast_path": spec.phy_fast_path,
        "session_fast_path": spec.session_fast_path,
        "batch_queries": spec.batch_queries,
        "data_stream": spec.data_stream,
    }


def session_spec_from_json(payload: Mapping[str, Any]) -> SessionSpec:
    """Decode :func:`session_spec_to_json` output (strict)."""
    _check_keys(payload, _SESSION_KEYS, frozenset(), "sessions")
    kwargs: dict[str, Any] = {}
    if "kind" in payload:
        if not isinstance(payload["kind"], str):
            raise SchemaError("sessions.kind must be a string")
        kwargs["kind"] = payload["kind"]
    if "distance_m" in payload:
        kwargs["distance_m"] = _check_number(
            payload["distance_m"], "sessions.distance_m"
        )
    if "location" in payload:
        if not isinstance(payload["location"], str):
            raise SchemaError("sessions.location must be a string")
        kwargs["location"] = payload["location"]
    for key in ("phy_fast_path", "session_fast_path"):
        if key in payload:
            if not isinstance(payload[key], bool):
                raise SchemaError(f"sessions.{key} must be a boolean")
            kwargs[key] = payload[key]
    for key in ("batch_queries", "data_stream"):
        if key in payload:
            kwargs[key] = _check_int(payload[key], f"sessions.{key}", 1)
    try:
        return SessionSpec(**kwargs)
    except ValueError as error:
        raise SchemaError(f"sessions: {error}") from error


# -- JobRequest ----------------------------------------------------------

_JOB_KEYS = frozenset(
    {
        "kind",
        "fn",
        "fn_kwargs",
        "sweep",
        "sessions",
        "n_sessions",
        "queries",
        "duration_s",
        "seed",
        "n_workers",
        "chunk_size",
        "priority",
        "retry",
    }
)


@dataclass(frozen=True)
class JobRequest:
    """One validated job submission.

    Two job kinds map onto the two engine entry points:

    * ``"sweep"`` — evaluate the registered work function :attr:`fn`
      (with :attr:`fn_kwargs`) at every grid point of :attr:`sweep`
      via :func:`repro.runner.run_sweep`.
    * ``"sessions"`` — run :attr:`n_sessions` independent measurement
      sessions built from :attr:`sessions` via
      :func:`repro.core.session.run_parallel_sessions` (exactly one of
      :attr:`queries` / :attr:`duration_s` decides their length).

    Either way the job's values are bit-identical to calling the engine
    directly with the same spec and seed — the server adds scheduling,
    not physics.
    """

    kind: str = "sweep"
    fn: str = "rng_probe"
    fn_kwargs: dict[str, Any] = field(default_factory=dict)
    sweep: SweepSpec | None = None
    sessions: SessionSpec | None = None
    n_sessions: int = 0
    queries: int | None = None
    duration_s: float | None = None
    seed: int = 0
    n_workers: int = 1
    chunk_size: int | None = None
    priority: int = 0
    retry: RetryPolicy | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("sweep", "sessions"):
            raise SchemaError(
                f"kind must be 'sweep' or 'sessions', got {self.kind!r}"
            )
        if self.kind == "sweep":
            if self.sweep is None:
                raise SchemaError("a sweep job needs a 'sweep' spec")
            if self.fn not in WORK_FUNCTIONS:
                raise SchemaError(
                    f"unknown work function {self.fn!r} (registered: "
                    f"{', '.join(sorted(WORK_FUNCTIONS))})"
                )
            accepted = sorted(
                name
                for name, parameter in inspect.signature(
                    WORK_FUNCTIONS[self.fn]
                ).parameters.items()
                if parameter.kind is inspect.Parameter.KEYWORD_ONLY
            )
            for key in self.fn_kwargs:
                if key not in accepted:
                    raise SchemaError(
                        f"fn_kwargs[{key!r}] is not a keyword of "
                        f"{self.fn} (accepted: "
                        f"{', '.join(accepted) or 'none'})"
                    )
        else:
            if self.sessions is None:
                raise SchemaError(
                    "a sessions job needs a 'sessions' spec"
                )
            if self.n_sessions < 1:
                raise SchemaError("n_sessions must be >= 1")
            if (self.queries is None) == (self.duration_s is None):
                raise SchemaError(
                    "a sessions job needs exactly one of queries / "
                    "duration_s"
                )
        if self.n_workers < 1:
            raise SchemaError("n_workers must be >= 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise SchemaError("chunk_size must be >= 1")


def job_request_to_json(request: JobRequest) -> dict[str, Any]:
    """Encode a :class:`JobRequest` as a JSON dict (round-trip exact)."""
    payload: dict[str, Any] = {"kind": request.kind}
    if request.kind == "sweep":
        payload["fn"] = request.fn
        if request.fn_kwargs:
            payload["fn_kwargs"] = dict(request.fn_kwargs)
        payload["sweep"] = sweep_spec_to_json(request.sweep)
    else:
        payload["sessions"] = session_spec_to_json(request.sessions)
        payload["n_sessions"] = request.n_sessions
        if request.queries is not None:
            payload["queries"] = request.queries
        if request.duration_s is not None:
            payload["duration_s"] = request.duration_s
        payload["seed"] = request.seed
        if request.chunk_size is not None:
            payload["chunk_size"] = request.chunk_size
    payload["n_workers"] = request.n_workers
    payload["priority"] = request.priority
    if request.retry is not None:
        payload["retry"] = retry_policy_to_json(request.retry)
    return payload


def job_request_from_json(payload: Mapping[str, Any]) -> JobRequest:
    """Decode a job submission (strict; raises :class:`SchemaError`)."""
    _check_keys(payload, _JOB_KEYS, frozenset(), "job")
    kind = payload.get("kind", "sweep")
    if kind not in ("sweep", "sessions"):
        raise SchemaError(
            f"kind must be 'sweep' or 'sessions', got {kind!r}"
        )
    kwargs: dict[str, Any] = {"kind": kind}
    if kind == "sweep":
        for key in (
            "sessions", "n_sessions", "queries", "duration_s", "seed",
            "chunk_size",
        ):
            if key in payload:
                raise SchemaError(
                    f"{key!r} does not apply to a sweep job"
                )
        fn = payload.get("fn", "rng_probe")
        if not isinstance(fn, str):
            raise SchemaError("fn must be a string")
        kwargs["fn"] = fn
        fn_kwargs = payload.get("fn_kwargs", {})
        if not isinstance(fn_kwargs, Mapping):
            raise SchemaError("fn_kwargs must be a JSON object")
        kwargs["fn_kwargs"] = {
            str(k): _check_scalar(v, f"fn_kwargs[{k!r}]")
            for k, v in fn_kwargs.items()
        }
        if "sweep" not in payload:
            raise SchemaError("a sweep job needs a 'sweep' spec")
        kwargs["sweep"] = sweep_spec_from_json(payload["sweep"])
    else:
        for key in ("fn", "fn_kwargs", "sweep"):
            if key in payload:
                raise SchemaError(
                    f"{key!r} does not apply to a sessions job"
                )
        if "sessions" not in payload:
            raise SchemaError("a sessions job needs a 'sessions' spec")
        kwargs["sessions"] = session_spec_from_json(payload["sessions"])
        kwargs["n_sessions"] = _check_int(
            payload.get("n_sessions", 0), "n_sessions"
        )
        if "queries" in payload:
            kwargs["queries"] = _check_int(payload["queries"], "queries", 1)
        if "duration_s" in payload:
            kwargs["duration_s"] = _check_number(
                payload["duration_s"], "duration_s"
            )
        kwargs["seed"] = _check_int(payload.get("seed", 0), "seed")
        if payload.get("chunk_size") is not None:
            kwargs["chunk_size"] = _check_int(
                payload["chunk_size"], "chunk_size", 1
            )
    kwargs["n_workers"] = _check_int(
        payload.get("n_workers", 1), "n_workers", 1
    )
    kwargs["priority"] = _check_int(payload.get("priority", 0), "priority")
    if payload.get("retry") is not None:
        kwargs["retry"] = retry_policy_from_json(payload["retry"])
    return JobRequest(**kwargs)


# -- results -------------------------------------------------------------

def value_to_json(value: Any) -> Any:
    """A work function's return value as JSON-able data.

    Handles the types the registered work functions and the session
    runner actually return — dicts of scalars, ``SessionStats``, numpy
    scalars, lists — exactly (floats survive JSON round trips
    bit-for-bit).  Anything unrecognized degrades to its ``repr`` so a
    result endpoint never 500s over an exotic value.
    """
    from ..core.session import SessionStats

    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, SessionStats):
        return {
            "bits_sent": value.bits_sent,
            "bit_errors": value.bit_errors,
            "elapsed_s": value.elapsed_s,
            "queries": value.queries,
            "missed_triggers": value.missed_triggers,
            "ber": value.ber,
            "throughput_bps": value.throughput_bps,
        }
    if isinstance(value, Mapping):
        return {str(k): value_to_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [value_to_json(v) for v in value]
    return {"repr": repr(value)}


def result_to_json(result: SweepResult) -> dict[str, Any]:
    """A :class:`repro.runner.SweepResult` as the job-result payload."""
    from .. import __version__

    return {
        "schema": JOB_SCHEMA,
        "version": __version__,
        "seed": result.seed,
        "n_workers": result.n_workers,
        "chunk_size": result.chunk_size,
        "executor": result.executor,
        "resumed_chunks": result.resumed_chunks,
        "retry_summary": result.retry_summary(),
        "points": [
            {
                "parameters": value_to_json(dict(point.parameters)),
                "seed": point.seed,
                "value": value_to_json(point.value),
            }
            for point in result.points
        ],
    }
