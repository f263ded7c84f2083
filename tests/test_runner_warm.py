"""Persistent warm workers: pool lifecycle, respawn, cache bit-identity.

:class:`repro.runner.warm.WarmPool` keeps worker processes alive
across engine runs, and ``SessionSpec(warm=True)`` lets those workers
transplant memoized pure state (frame templates, tag alignment
vectors, static channel vectors) between session builds.  Both are
pure scheduling/caching concerns: every test here ultimately asserts
the same thing — results bit-identical to the serial reference — under
pool reuse, worker death and respawn, and warm cache adoption across
differing seeds and scenarios.
"""

import pytest

from repro.runner import (
    TelemetrySpec,
    UnitContext,
    WarmPool,
    run_sessions,
    run_units,
)
from repro.runner.transport import leaked_segments
from repro.runner.workers import (
    SessionSpec,
    reset_warm_caches,
    rng_probe,
)

pytestmark = [pytest.mark.runner]


def units(n, seed=0):
    return [
        UnitContext(index=i, parameters={"x": i}, root_seed=seed)
        for i in range(n)
    ]


class TestPoolLifecycle:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            WarmPool(0)

    def test_close_is_idempotent_and_final(self):
        pool = WarmPool(1)
        assert not pool.closed
        pool.close()
        pool.close()
        assert pool.closed
        with pytest.raises(RuntimeError):
            pool.run_round({})

    def test_context_manager_closes(self):
        with WarmPool(1) as pool:
            assert len(pool.worker_pids()) == 1
        assert pool.closed

    def test_pool_survives_across_engine_runs(self):
        serial = run_units(rng_probe, units(6), seed=2)
        with WarmPool(2) as pool:
            first = run_units(
                rng_probe, units(6), seed=2, n_workers=2,
                chunk_size=2, pool=pool,
            )
            pids = pool.worker_pids()
            second = run_units(
                rng_probe, units(6), seed=2, n_workers=2,
                chunk_size=2, pool=pool,
            )
            # Same live workers served both runs: that is the warmth.
            assert pool.worker_pids() == pids
        assert first.executor == "warm"
        assert first.values == serial.values
        assert second.values == serial.values

    def test_executor_warm_without_pool_spins_one_up(self):
        serial = run_units(rng_probe, units(4), seed=0)
        warm = run_units(
            rng_probe, units(4), seed=0, n_workers=2,
            executor="warm", chunk_size=1,
        )
        assert warm.executor == "warm"
        assert warm.values == serial.values


class TestPoolFaults:
    def test_worker_exit_respawns_and_completes(self, chaos):
        with WarmPool(2) as pool:
            baseline, chaotic = chaos.check_bit_identical(
                rng_probe,
                units(8),
                faults=chaos.faults(exit=(3,)),
                n_workers=2,
                chunk_size=2,
                pool=pool,
            )
            assert pool.respawns >= 1
            # The pool is still serviceable after the respawn.
            again = run_units(
                rng_probe, units(8), n_workers=2, chunk_size=2,
                pool=pool,
            )
            assert again.values == baseline.values

    def test_worker_exit_leaves_no_segments(self, chaos):
        with WarmPool(2) as pool:
            chaos.check_bit_identical(
                rng_probe,
                units(8),
                faults=chaos.faults(exit=(1,)),
                n_workers=2,
                chunk_size=2,
                pool=pool,
            )
        assert leaked_segments() == []


class TestWarmSessions:
    """SessionSpec(warm=True) cache adoption must be invisible."""

    def teardown_method(self):
        reset_warm_caches()

    @staticmethod
    def _stats(result):
        return [
            (
                value.queries,
                value.ber,
                value.throughput_bps,
                value.missed_triggers,
                value.bits_sent,
            )
            for value in result.values
        ]

    @pytest.mark.parametrize("kind", ["los", "nlos"])
    def test_warm_serial_matches_cold(self, kind):
        cold = run_sessions(
            SessionSpec(kind=kind), 4, queries=8, seed=3
        )
        reset_warm_caches()
        warm = run_sessions(
            SessionSpec(kind=kind, warm=True), 4, queries=8, seed=3
        )
        assert self._stats(warm) == self._stats(cold)

    def test_warm_pool_matches_serial(self):
        spec_cold = SessionSpec(distance_m=3.0)
        serial = run_sessions(spec_cold, 4, queries=8, seed=1)
        with WarmPool(2) as pool:
            warm = run_sessions(
                SessionSpec(distance_m=3.0, warm=True),
                4,
                queries=8,
                seed=1,
                n_workers=2,
                chunk_size=1,
                pool=pool,
            )
            # Run the same job again on the now-cache-warm workers.
            warm_again = run_sessions(
                SessionSpec(distance_m=3.0, warm=True),
                4,
                queries=8,
                seed=1,
                n_workers=2,
                chunk_size=1,
                pool=pool,
            )
        assert self._stats(warm) == self._stats(serial)
        assert self._stats(warm_again) == self._stats(serial)
        assert leaked_segments() == []

    def test_warm_caches_do_not_bleed_across_seeds(self):
        # Channel LOS phases are seed-dependent; a donor channel from
        # seed A must never leak its static vectors into seed B.
        reset_warm_caches()
        cold_a = run_sessions(SessionSpec(), 2, queries=6, seed=11)
        cold_b = run_sessions(SessionSpec(), 2, queries=6, seed=12)
        reset_warm_caches()
        warm_a = run_sessions(
            SessionSpec(warm=True), 2, queries=6, seed=11
        )
        warm_b = run_sessions(
            SessionSpec(warm=True), 2, queries=6, seed=12
        )
        assert self._stats(warm_a) == self._stats(cold_a)
        assert self._stats(warm_b) == self._stats(cold_b)

    def test_warm_caches_do_not_bleed_across_scenarios(self):
        reset_warm_caches()
        cold_near = run_sessions(
            SessionSpec(distance_m=1.0), 2, queries=6, seed=4
        )
        cold_far = run_sessions(
            SessionSpec(distance_m=6.0), 2, queries=6, seed=4
        )
        reset_warm_caches()
        warm_near = run_sessions(
            SessionSpec(distance_m=1.0, warm=True), 2, queries=6, seed=4
        )
        warm_far = run_sessions(
            SessionSpec(distance_m=6.0, warm=True), 2, queries=6, seed=4
        )
        assert self._stats(warm_near) == self._stats(cold_near)
        assert self._stats(warm_far) == self._stats(cold_far)

    def test_per_query_physics_identical_warm_vs_cold(self):
        # Deeper than SessionStats: the full per-query BER series from
        # a directly built warm session must match a cold one.

        def build(warm):
            reset_warm_caches()
            spec = SessionSpec(distance_m=2.5, warm=warm)
            ctx = UnitContext(
                index=0, parameters={}, root_seed=9
            )
            if warm:  # prime the donor registries with a first build
                spec(
                    UnitContext(index=1, parameters={}, root_seed=9)
                )
            session = spec(ctx)
            session.run_queries(12)
            return session.per_query_ber()

        assert build(False) == build(True)

    def test_reset_warm_caches_clears_registries(self):
        from repro.runner import workers

        reset_warm_caches()
        spec = SessionSpec(warm=True)
        spec(UnitContext(index=0, parameters={}, root_seed=0))
        assert workers._WARM_DONORS
        assert workers._WARM_CHANNELS
        reset_warm_caches()
        assert not workers._WARM_DONORS
        assert not workers._WARM_CHANNELS

    def test_channel_registry_is_bounded(self):
        from repro.runner import workers

        reset_warm_caches()
        spec = SessionSpec(warm=True)
        for seed in range(workers._WARM_CHANNELS_MAX + 8):
            spec(
                UnitContext(index=0, parameters={}, root_seed=seed)
            )
        assert (
            len(workers._WARM_CHANNELS) <= workers._WARM_CHANNELS_MAX
        )
        reset_warm_caches()


class TestWarmTelemetry:
    def test_warm_pool_aggregate_matches_serial(self):
        spec = SessionSpec()
        serial = run_sessions(
            spec, 4, queries=6, seed=7, chunk_size=1,
            telemetry=TelemetrySpec(metrics=True),
        )
        with WarmPool(2) as pool:
            warm = run_sessions(
                spec, 4, queries=6, seed=7, chunk_size=1,
                n_workers=2, pool=pool,
                telemetry=TelemetrySpec(metrics=True),
            )
        assert (
            warm.telemetry.metrics_snapshot()
            == serial.telemetry.metrics_snapshot()
        )
