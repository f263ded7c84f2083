"""Shared fixtures for the test suite.

The ``chaos`` fixture is the reusable fault-injection harness: any
suite can run an engine call under deterministic injected
crash/hang/worker-exit faults and assert the determinism contract
survived (see ``docs/fault_tolerance.md``).
"""

import os

import pytest

from repro.runner import (
    RetryPolicy,
    WorkUnitError,
    run_sweep,
    run_units,
)
from tests.faults import FaultSpec, FaultyWork


class ChaosHarness:
    """Run engine calls under deterministic injected faults.

    Builds :class:`tests.faults.FaultSpec` plans, wraps work functions
    in :class:`tests.faults.FaultyWork` (each wrapped run counts its
    attempts in a fresh directory under ``state_root``), runs
    ``run_units`` with them, and asserts that a faulty-but-tolerated
    run reproduces the fault-free result bit-for-bit.
    """

    #: Default tolerance for injected single-failure faults.
    default_retry = RetryPolicy(max_attempts=3)

    def __init__(self, state_root: str) -> None:
        self.state_root = state_root
        self._runs = 0

    def faults(self, **kwargs) -> FaultSpec:
        """A :class:`FaultSpec` (keyword passthrough)."""
        return FaultSpec(**kwargs)

    def seeded(self, seed: int, n_units: int, **rates) -> FaultSpec:
        """A reproducible random fault plan (``FaultSpec.seeded``)."""
        return FaultSpec.seeded(seed, n_units, **rates)

    def wrap(self, fn, faults: FaultSpec) -> FaultyWork:
        """``fn`` with ``faults`` injected; attempts count from zero."""
        self._runs += 1
        state_dir = os.path.join(self.state_root, f"run{self._runs}")
        os.makedirs(state_dir)
        return FaultyWork(fn, faults, state_dir)

    def run(self, fn, units, *, faults=None, retry=default_retry, **kwargs):
        """``run_units`` with faults injected and (by default) tolerated."""
        if faults is not None:
            fn = self.wrap(fn, faults)
        return run_units(fn, units, retry=retry, **kwargs)

    def check_bit_identical(
        self, fn, units, *, faults, retry=default_retry, **kwargs
    ):
        """Assert a tolerated chaotic run matches the fault-free run.

        Returns ``(baseline, chaotic)`` for further assertions (retry
        events, executor used, telemetry...).
        """
        baseline = run_units(fn, list(units), **kwargs)
        chaotic = self.run(
            fn, list(units), faults=faults, retry=retry, **kwargs
        )
        assert chaotic.values == baseline.values, (
            "injected faults changed sweep values despite retries"
        )
        assert [p.seed for p in chaotic.points] == [
            p.seed for p in baseline.points
        ]
        return baseline, chaotic

    def partial_checkpoint(self, fn, spec, checkpoint, *, crash_unit):
        """Leave a partial checkpoint behind, as a killed run would.

        Runs ``run_sweep(fn, spec)`` against ``checkpoint`` with a
        *permanent* crash injected at ``crash_unit`` and no retry
        budget, so the run dies mid-sweep with every chunk completed
        before the crash already spilled.  Restart/resume tests (the
        job service's kill-and-restart scenario included) then resume
        from exactly this state.  Pick ``crash_unit`` at least one
        chunk into the sweep or there is nothing to resume.
        """
        faulty = self.wrap(
            fn, FaultSpec(crash=(crash_unit,), failures=10**6)
        )
        try:
            run_sweep(
                faulty,
                spec,
                retry=RetryPolicy(max_attempts=1),
                checkpoint=checkpoint,
                resume=True,
            )
        except WorkUnitError:
            return
        raise AssertionError(
            "injected permanent crash did not abort the run"
        )


@pytest.fixture
def chaos(tmp_path) -> ChaosHarness:
    """Deterministic fault-injection harness for engine calls."""
    return ChaosHarness(str(tmp_path / "chaos"))
