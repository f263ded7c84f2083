"""Equivalence and regression suite for the vectorized PHY fast path.

Three layers of guarantees:

* **Bitwise**: the batch SINR/outcome APIs draw randomness in exactly
  the scalar order, so from the same generator state they must return
  bit-identical results to the per-subframe reference loop; the
  coded-BER tables built at import equal their per-point fill.
* **Tolerance**: the interpolated coded-BER table (the one deliberate
  approximation on the fast path) stays within ~1e-3 relative of the
  exact union bound, and whole sessions agree with the scalar path.
* **Pinned**: headline Figure 5 / Figure 3 numbers recorded before the
  optimization landed must keep reproducing (exact query/bit counts,
  banded BER) with the fast path on.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core.session import MeasurementSession
from repro.phy.channel import (
    BackscatterChannel,
    ChannelGeometry,
    TagState,
)
from repro.phy.coding import (
    SUPPORTED_RATES,
    _CODED_BER_TABLES,
    coded_bit_error_rate,
    coded_bit_error_rate_batch,
    packet_error_rate,
    packet_error_rate_batch,
)
from repro.phy.error_model import (
    DECODE_BLOCK_QUERIES,
    FadingSample,
    LinkErrorModel,
    mpdu_success_probabilities,
    mpdu_success_probability,
)
from repro.phy.mcs import ht_mcs

MCS_TABLE = [ht_mcs(i) for i in range(8)]
from repro.sim.scenario import los_scenario
from tests.oracles.coding import coded_ber_table_reference

STATES = [
    TagState.REFLECT_0,
    TagState.ABSORB,
    TagState.REFLECT_0,
    TagState.REFLECT_0,
    TagState.ABSORB,
    TagState.ABSORB,
    TagState.REFLECT_0,
    TagState.ABSORB,
]


def _model(seed=7, mcs_index=3):
    channel = BackscatterChannel(
        ChannelGeometry.on_line(8.0, 3.0),
        rng=np.random.default_rng(seed),
    )
    return LinkErrorModel(
        channel,
        MCS_TABLE[mcs_index],
        rng=np.random.default_rng(seed + 1),
    )


def _fading():
    return FadingSample(
        direct_gain=0.9e-4 + 0.2e-4j, tag_fading=1.1 - 0.05j
    )


class TestBitwiseEquivalence:
    def test_batch_sinrs_match_scalar_with_estimation_noise(self):
        scalar_model = _model()
        batch_model = _model()
        fading = _fading()
        expected = np.array(
            [
                scalar_model.subframe_effective_sinr(
                    TagState.REFLECT_0, state, fading
                )
                for state in STATES
            ]
        )
        got = batch_model.subframe_effective_sinrs(
            TagState.REFLECT_0, STATES, fading
        )
        # Bitwise, not approximate: same RNG draws, same float op order.
        assert got.tolist() == expected.tolist()
        # Both paths consumed the identical randomness stream.
        assert (
            scalar_model.rng.bit_generator.state
            == batch_model.rng.bit_generator.state
        )

    def test_batch_sinrs_match_scalar_without_estimation_noise(self):
        model = _model()
        fading = _fading()
        expected = np.array(
            [
                model.subframe_effective_sinr(
                    TagState.REFLECT_0,
                    state,
                    fading,
                    include_estimation_noise=False,
                )
                for state in STATES
            ]
        )
        got = model.subframe_effective_sinrs(
            TagState.REFLECT_0, STATES, fading,
            include_estimation_noise=False,
        )
        assert got.tolist() == expected.tolist()

    def test_batch_outcomes_match_scalar_with_exact_coding(self):
        scalar_model = _model(seed=21)
        batch_model = _model(seed=21)
        fading = _fading()
        bits = [8 * 120] * len(STATES)
        expected = [
            scalar_model.subframe_outcome(
                bits[i], TagState.REFLECT_0, STATES[i], fading
            )
            for i in range(len(STATES))
        ]
        got = batch_model.subframe_outcomes(
            bits, TagState.REFLECT_0, STATES, fading, exact_coding=True
        )
        assert got.tolist() == expected
        assert (
            scalar_model.rng.bit_generator.state
            == batch_model.rng.bit_generator.state
        )

    def test_mpdu_success_probabilities_exact_matches_scalar(self):
        mcs = MCS_TABLE[4]
        sinrs = np.geomspace(0.1, 300.0, 17)
        expected = [
            mpdu_success_probability(mcs, 960, float(s)) for s in sinrs
        ]
        got = mpdu_success_probabilities(mcs, 960, sinrs, exact=True)
        assert got.tolist() == expected

    def test_per_mcs_uncoded_ber_array_matches_scalar(self):
        snrs = np.geomspace(1e-3, 1e3, 25)
        for mcs in MCS_TABLE:
            scalar = np.array(
                [mcs.modulation.bit_error_rate(float(s)) for s in snrs]
            )
            vector = mcs.modulation.bit_error_rate_array(snrs)
            np.testing.assert_allclose(vector, scalar, rtol=1e-12)


class TestDedup:
    def test_repeated_states_equal_unique_rows(self):
        model = _model(seed=3)
        fading = _fading()
        states = [TagState.REFLECT_0] * 5
        sinrs = model.subframe_effective_sinrs(
            TagState.REFLECT_0, states, fading,
            include_estimation_noise=False,
        )
        # Noise-free + one distinct state: every subframe identical.
        assert len(set(sinrs.tolist())) == 1
        assert sinrs.shape == (5,)

    def test_empty_batch(self):
        model = _model()
        sinrs = model.subframe_effective_sinrs(
            TagState.REFLECT_0, [], _fading()
        )
        assert sinrs.shape == (0,)
        outcomes = model.subframe_outcomes(
            [], TagState.REFLECT_0, [], _fading()
        )
        assert outcomes.shape == (0,)

    def test_all_three_states_one_ampdu(self):
        scalar_model = _model(seed=9)
        batch_model = _model(seed=9)
        fading = _fading()
        states = [
            TagState.ABSORB,
            TagState.REFLECT_0,
            TagState.REFLECT_180,
            TagState.REFLECT_180,
            TagState.ABSORB,
        ]
        expected = [
            scalar_model.subframe_effective_sinr(
                TagState.REFLECT_180, s, fading
            )
            for s in states
        ]
        got = batch_model.subframe_effective_sinrs(
            TagState.REFLECT_180, states, fading
        )
        assert got.tolist() == expected


class TestCodedBerTable:
    def test_table_tracks_exact_union_bound(self):
        # The scalar reference rounds p to 9 decimals for its own cache,
        # so sample at 9-decimal-representable points where it evaluates
        # the true bound; the table interpolates the same unrounded p.
        probabilities = np.unique(
            np.round(np.geomspace(1e-8, 0.5, 400), 9)
        )
        probabilities = probabilities[probabilities > 0]
        for mcs in MCS_TABLE:
            exact = np.array(
                [
                    coded_bit_error_rate(mcs.coding_rate, float(p))
                    for p in probabilities
                ]
            )
            table = coded_bit_error_rate_batch(
                mcs.coding_rate, probabilities
            )
            np.testing.assert_allclose(table, exact, rtol=2e-3)

    @pytest.mark.parametrize("rate", SUPPORTED_RATES, ids=str)
    def test_tables_bitwise_equal_per_point_fill(self, rate):
        key = (rate.numerator, rate.denominator)
        log_p, log_coded = _CODED_BER_TABLES[key]
        ref_log_p, ref_log_coded = coded_ber_table_reference(key)
        assert log_p.tobytes() == ref_log_p.tobytes()
        assert log_coded.tobytes() == ref_log_coded.tobytes()

    def test_batch_never_goes_through_the_scalar_cache(self):
        # In a fresh interpreter, so that no earlier test can have
        # filled a table already.  A fill through the scalar bound's
        # 4,096-entry LRU would also evict the rounded entries that
        # coded_bit_error_rate relies on.
        script = (
            "from repro.phy import coding\n"
            "coding._coded_ber_cached.cache_clear()\n"
            "for rate in coding.SUPPORTED_RATES:\n"
            "    coding.coded_bit_error_rate_batch(rate, [1e-6, 1e-3, 0.2])\n"
            "print(coding._coded_ber_cached.cache_info().misses)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0"]

    def test_tiny_probabilities_map_to_zero(self):
        out = coded_bit_error_rate_batch(
            MCS_TABLE[0].coding_rate, np.array([0.0, 1e-13])
        )
        assert out.tolist() == [0.0, 0.0]

    def test_packet_error_rate_batch_matches_scalar(self):
        bers = np.array([0.0, 1e-9, 1e-6, 1e-3, 0.2, 0.5])
        bits = 8 * 150
        expected = [packet_error_rate(float(b), bits) for b in bers]
        got = packet_error_rate_batch(bers, bits)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_fast_success_probabilities_close_to_exact(self):
        mcs = MCS_TABLE[3]
        sinrs = np.geomspace(0.5, 200.0, 60)
        exact = mpdu_success_probabilities(mcs, 1200, sinrs, exact=True)
        fast = mpdu_success_probabilities(mcs, 1200, sinrs)
        # The table's ~1e-3 relative coded-BER error translates to a few
        # 1e-6 absolute on success probabilities (observed max ~3.4e-6).
        np.testing.assert_allclose(fast, exact, atol=1e-4)


class TestChannelVectorCache:
    def test_static_vector_cached_and_read_only(self):
        channel = BackscatterChannel(
            ChannelGeometry.on_line(8.0, 2.0),
            rng=np.random.default_rng(5),
        )
        first = channel.channel_vector(TagState.REFLECT_0)
        second = channel.channel_vector(TagState.REFLECT_0)
        assert first is second
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_cached_value_matches_uncached_formula(self):
        channel = BackscatterChannel(
            ChannelGeometry.on_line(8.0, 2.0),
            rng=np.random.default_rng(5),
        )
        cached = channel.channel_vector(TagState.REFLECT_180)
        explicit = channel.channel_vector(
            TagState.REFLECT_180, channel.direct_gain
        )
        np.testing.assert_allclose(cached, explicit, rtol=1e-15)

    def test_faded_calls_bypass_cache(self):
        channel = BackscatterChannel(
            ChannelGeometry.on_line(8.0, 2.0),
            rng=np.random.default_rng(5),
        )
        faded = channel.channel_vector(
            TagState.REFLECT_0, 1e-4 + 1e-4j, 0.8 + 0.1j
        )
        assert faded.flags.writeable  # fresh array, not the cache
        again = channel.channel_vector(
            TagState.REFLECT_0, 1e-4 + 1e-4j, 0.8 + 0.1j
        )
        assert faded is not again

    def test_invalidate_caches(self):
        channel = BackscatterChannel(
            ChannelGeometry.on_line(8.0, 2.0),
            rng=np.random.default_rng(5),
        )
        first = channel.channel_vector(TagState.ABSORB)
        channel.invalidate_caches()
        second = channel.channel_vector(TagState.ABSORB)
        assert first is not second
        np.testing.assert_array_equal(first, second)


class TestSystemFastPath:
    def test_session_stats_match_scalar_path(self):
        fast_system, _ = los_scenario(4.0, seed=42)
        slow_system, _ = los_scenario(4.0, seed=42, phy_fast_path=False)
        assert fast_system.phy_fast_path
        assert not slow_system.phy_fast_path
        fast = MeasurementSession(
            fast_system, rng=np.random.default_rng(43)
        ).run_queries(40)
        slow = MeasurementSession(
            slow_system, rng=np.random.default_rng(43)
        ).run_queries(40)
        assert fast.queries == slow.queries == 40
        assert fast.bits_sent == slow.bits_sent
        assert fast.elapsed_s == slow.elapsed_s
        # Outcomes may differ only via the coded-BER table (~1e-6 flip
        # probability per subframe); at this sample size they never
        # diverge measurably.
        assert abs(fast.ber - slow.ber) < 5e-3

    def test_counters_populated(self):
        system, _ = los_scenario(4.0, seed=11)
        session = MeasurementSession(
            system, rng=np.random.default_rng(12)
        )
        session.run_queries(2)
        timings = session.stage_timings()
        assert set(timings) == {"system", "error_model"}
        assert timings["system"]["phy-decode"]["calls"] == 2
        assert timings["system"]["query-build"]["calls"] == 2
        for stage in ("channel", "csi", "eesm", "coding"):
            assert timings["error_model"][stage]["seconds"] >= 0.0
            assert timings["error_model"][stage]["calls"] > 0


class TestPinnedBaselines:
    """Headline numbers recorded before the fast path landed.

    Query/bit counts are timing-driven and must reproduce exactly; BER
    is pinned to the recorded value with a band wide enough for the
    coded-BER table's ~1e-6 per-subframe outcome-flip probability yet
    far tighter than any physical effect in the figures.
    """

    # (distance_m, queries, bits_sent, ber) with scenario seed
    # 100 + distance and session rng seed 200 + distance, run_for(0.4).
    FIG5_BASELINE = [
        (1.0, 275, 17050, 0.003988269794721408),
        (4.0, 275, 17050, 0.03741935483870968),
        (7.0, 275, 17050, 0.004398826979472141),
    ]

    @pytest.mark.parametrize(
        "distance_m,queries,bits_sent,ber", FIG5_BASELINE
    )
    def test_fig5_points_reproduce(
        self, distance_m, queries, bits_sent, ber
    ):
        system, _ = los_scenario(distance_m, seed=100 + int(distance_m))
        session = MeasurementSession(
            system, rng=np.random.default_rng(200 + int(distance_m))
        )
        stats = session.run_for(0.4)
        assert stats.queries == queries
        assert stats.bits_sent == bits_sent
        assert stats.ber == pytest.approx(ber, abs=2e-3)

    def test_fig3_channel_change_magnitudes(self):
        system, _ = los_scenario(4.0, seed=104)
        channel = system.error_model.channel
        assert channel.mean_change_magnitude(
            TagState.ABSORB, TagState.REFLECT_0
        ) == pytest.approx(7.876669245162025e-06, rel=1e-9)
        assert channel.mean_change_magnitude(
            TagState.REFLECT_0, TagState.REFLECT_180
        ) == pytest.approx(1.7503709433693393e-05, rel=1e-9)


def _chunk_rows(n_queries: int, n_subframes: int = 64) -> list[list]:
    rng = np.random.default_rng(n_queries)
    return [
        [STATES[j] for j in rng.integers(0, len(STATES), n_subframes)]
        for _ in range(n_queries)
    ]


class TestBlockedDecode:
    """The 2-D decode steps through a chunk in fixed blocks of queries."""

    @pytest.mark.parametrize("per_row", [False, True], ids=["shared", "rngs"])
    def test_rows_match_per_query_decode_across_blocks(self, per_row):
        n_q = 2 * DECODE_BLOCK_QUERIES + 3
        rows = _chunk_rows(n_q, n_subframes=12)
        bits = [8 * 120] * 12
        batch_model, ref_model = _model(seed=31), _model(seed=31)
        fading = batch_model.sample_fading_batch(n_q)

        def rngs():
            return [np.random.default_rng(900 + q) for q in range(n_q)]

        sinrs = batch_model.subframe_effective_sinrs_batch2d(
            TagState.REFLECT_0, rows, fading,
            rngs=rngs() if per_row else None,
        )
        outcomes = batch_model.subframe_outcomes_batch2d(
            bits, TagState.REFLECT_0, rows, fading, exact_coding=True,
            rngs=rngs() if per_row else None,
        )
        # The reference replays both calls query by query, each row
        # from the same generator state the batch call drew it from.
        row_rngs = rngs()
        for q in range(n_q):
            if per_row:
                ref_model.rng = row_rngs[q]
            expected = ref_model.subframe_effective_sinrs(
                TagState.REFLECT_0, rows[q], fading.sample(q)
            )
            assert sinrs[q].tolist() == expected.tolist(), q
        row_rngs = rngs()
        for q in range(n_q):
            if per_row:
                ref_model.rng = row_rngs[q]
            expected = ref_model.subframe_outcomes(
                bits, TagState.REFLECT_0, rows[q], fading.sample(q),
                exact_coding=True,
            )
            assert outcomes[q].tolist() == expected.tolist(), q
        if not per_row:
            assert (
                batch_model.rng.bit_generator.state
                == ref_model.rng.bit_generator.state
            )

    @staticmethod
    def _peak_bytes(n_queries: int, per_row: bool) -> int:
        model = _model()
        rows = _chunk_rows(n_queries)
        bits = [8 * 120] * len(rows[0])
        fading = model.sample_fading_batch(n_queries)
        rngs = (
            [np.random.default_rng(q) for q in range(n_queries)]
            if per_row
            else None
        )
        # Warm-up: resolve kernels and fill lazily built tables.
        model.subframe_outcomes_batch2d(
            bits, TagState.REFLECT_0, rows[:2], model.sample_fading_batch(2)
        )
        tracemalloc.start()
        try:
            model.subframe_outcomes_batch2d(
                bits, TagState.REFLECT_0, rows, fading, rngs=rngs
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("per_row", [False, True], ids=["shared", "rngs"])
    def test_working_set_does_not_grow_with_chunk(self, per_row):
        small = self._peak_bytes(32, per_row)
        large = self._peak_bytes(256, per_row)
        assert large <= 2 * small, (large, small)
