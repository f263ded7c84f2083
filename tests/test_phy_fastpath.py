"""Equivalence and regression suite for the 2-D PHY decode.

Three layers of guarantees:

* **Bitwise**: the 2-D decode draws randomness in the per-subframe
  order of the oracle in ``tests/oracles/link.py`` and reads the coded
  BER through the same table, so from the same generator state it must
  return bit-identical SINRs and outcomes; the coded-BER tables built at
  import equal their per-point fill.
* **Tolerance**: the interpolated coded-BER table stays within ~1e-3
  relative of the exact union bound.
* **Pinned**: headline Figure 5 / Figure 3 numbers must keep
  reproducing exactly (query/bit counts and BER).
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
    FadingBatch,
    FadingSample,
    LinkErrorModel,
    mpdu_success_probabilities,
)
from repro.obs import Telemetry
from repro.phy.mcs import ht_mcs

MCS_TABLE = [ht_mcs(i) for i in range(8)]
from repro.sim.scenario import los_scenario
from tests.oracles import link as oracle
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


def _one_row(fading: FadingSample) -> FadingBatch:
    return FadingBatch(
        direct_gains=np.array([fading.direct_gain]),
        tag_fadings=np.array([fading.tag_fading]),
    )


class TestBitwiseEquivalence:
    def test_batch_sinrs_match_scalar_with_estimation_noise(self):
        reference = _model()
        engine = _model()
        fading = _fading()
        expected = oracle.effective_sinrs(
            reference, TagState.REFLECT_0, STATES, fading
        )
        got = engine.subframe_effective_sinrs_batch2d(
            TagState.REFLECT_0,
            oracle.code_matrix([STATES]),
            _one_row(fading),
        )
        # Bitwise, not approximate: same RNG draws, same float op order.
        assert got[0].tolist() == expected
        assert (
            reference.rng.bit_generator.state
            == engine.rng.bit_generator.state
        )

    def test_batch_outcomes_match_scalar(self):
        reference = _model(seed=21)
        engine = _model(seed=21)
        fading = _fading()
        bits = [8 * 120] * len(STATES)
        expected = oracle.decode_row(
            reference, bits, TagState.REFLECT_0, STATES, fading
        )
        got = engine.subframe_outcomes_batch2d(
            bits,
            TagState.REFLECT_0,
            oracle.code_matrix([STATES]),
            _one_row(fading),
        )
        assert got[0].tolist() == expected
        # Both consumed the identical randomness stream.
        assert (
            reference.rng.bit_generator.state
            == engine.rng.bit_generator.state
        )

    def test_mpdu_success_probabilities_exact_matches_scalar(self):
        # Elementwise: reading the table one subframe at a time gives
        # the same bits as reading a whole matrix at once, which is why
        # the oracle can read it per row.
        for mcs in (MCS_TABLE[0], MCS_TABLE[4], MCS_TABLE[7]):
            sinrs = np.geomspace(0.1, 300.0, 17 * 8).reshape(17, 8)
            bits = np.full(sinrs.shape, 960)
            bits[::3] = 120
            matrix = mpdu_success_probabilities(mcs, bits, sinrs)
            single = [
                mpdu_success_probabilities(mcs, b, np.array([s]))[0]
                for b, s in zip(bits.ravel().tolist(), sinrs.ravel())
            ]
            assert matrix.ravel().tolist() == single

    def test_per_mcs_uncoded_ber_array_matches_scalar(self):
        snrs = np.geomspace(1e-3, 1e3, 25)
        for mcs in MCS_TABLE:
            scalar = np.array(
                [mcs.modulation.bit_error_rate(float(s)) for s in snrs]
            )
            vector = mcs.modulation.bit_error_rate_array(snrs)
            np.testing.assert_allclose(vector, scalar, rtol=1e-12)


class TestDedup:
    """The channel-change stack is filled only for the codes present."""

    def test_repeated_states_equal_unique_rows(self):
        # One distinct state repeated across the row: the decode fills
        # a single channel-change row and every subframe still matches
        # the oracle, which recomputes per subframe.
        states = [TagState.REFLECT_0] * 5
        reference, engine = _model(seed=3), _model(seed=3)
        expected = oracle.effective_sinrs(
            reference, TagState.REFLECT_0, states, _fading()
        )
        sinrs = engine.subframe_effective_sinrs_batch2d(
            TagState.REFLECT_0,
            oracle.code_matrix([states]),
            _one_row(_fading()),
        )
        assert sinrs.shape == (1, 5)
        assert sinrs[0].tolist() == expected

    def test_empty_batch(self):
        model = _model()
        empty = FadingBatch(
            direct_gains=np.empty(0, dtype=complex),
            tag_fadings=np.empty(0, dtype=complex),
        )
        sinrs = model.subframe_effective_sinrs_batch2d(
            TagState.REFLECT_0, np.empty((0, 0), dtype=np.int8), empty
        )
        assert sinrs.shape == (0, 0)
        outcomes = model.subframe_outcomes_batch2d(
            [], TagState.REFLECT_0, [[]], _one_row(_fading())
        )
        assert outcomes.shape == (1, 0)

    def test_all_three_states_one_ampdu(self):
        reference = _model(seed=9)
        engine = _model(seed=9)
        fading = _fading()
        states = [
            TagState.ABSORB,
            TagState.REFLECT_0,
            TagState.REFLECT_180,
            TagState.REFLECT_180,
            TagState.ABSORB,
        ]
        expected = oracle.effective_sinrs(
            reference, TagState.REFLECT_180, states, fading
        )
        got = engine.subframe_effective_sinrs_batch2d(
            TagState.REFLECT_180,
            oracle.code_matrix([states]),
            _one_row(fading),
        )
        assert got[0].tolist() == expected


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
        # Against the union bound composed one subframe at a time.
        mcs = MCS_TABLE[3]
        sinrs = np.geomspace(0.5, 200.0, 60)
        exact = [
            1.0
            - packet_error_rate(
                coded_bit_error_rate(
                    mcs.coding_rate, mcs.modulation.bit_error_rate(float(s))
                ),
                1200,
            )
            for s in sinrs
        ]
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
        engine_system, _ = los_scenario(4.0, seed=42)
        oracle_system, _ = los_scenario(4.0, seed=42)
        engine = MeasurementSession(
            engine_system, rng=np.random.default_rng(43)
        )
        reference = oracle.Session(
            oracle_system, rng=np.random.default_rng(43)
        )
        engine_stats = engine.run_queries(40)
        assert engine_stats.queries == 40
        assert engine_stats == reference.run_queries(40)
        assert engine.per_query_ber() == reference.per_query_ber()

    def test_counters_populated(self):
        system, _ = los_scenario(4.0, seed=11)
        telemetry = Telemetry(metrics=False)
        telemetry.attach(system)
        session = MeasurementSession(
            system, rng=np.random.default_rng(12)
        )
        session.run_queries(2)
        spans = telemetry.spans.snapshot()
        assert set(spans) == {"core.session"}
        stages = spans["core.session"]["children"]
        assert stages["phy.error_model"]["calls"] == 2
        assert stages["core.query"]["calls"] == 2
        decode = stages["phy.error_model"]["children"]
        for stage in ("channel", "csi", "eesm", "phy.coding"):
            assert decode[stage]["seconds"] >= 0.0
            assert decode[stage]["calls"] > 0


class TestPinnedBaselines:
    """Headline numbers, pinned exactly.

    Query/bit counts are timing-driven; BER depends on every decode
    draw.  Both must reproduce to the last bit.
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
        assert stats.ber == ber

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
            TagState.REFLECT_0, oracle.code_matrix(rows), fading,
            rngs=rngs() if per_row else None,
        )
        outcomes = batch_model.subframe_outcomes_batch2d(
            bits, TagState.REFLECT_0, oracle.code_matrix(rows), fading,
            rngs=rngs() if per_row else None,
        )
        # The reference replays both calls query by query, each row
        # from the same generator state the batch call drew it from.
        row_rngs = rngs()
        for q in range(n_q):
            if per_row:
                ref_model.rng = row_rngs[q]
            expected = oracle.effective_sinrs(
                ref_model, TagState.REFLECT_0, rows[q], fading.sample(q)
            )
            assert sinrs[q].tolist() == expected, q
        row_rngs = rngs()
        for q in range(n_q):
            if per_row:
                ref_model.rng = row_rngs[q]
            expected = oracle.decode_row(
                ref_model, bits, TagState.REFLECT_0, rows[q],
                fading.sample(q),
            )
            assert outcomes[q].tolist() == expected, q
        if not per_row:
            assert (
                batch_model.rng.bit_generator.state
                == ref_model.rng.bit_generator.state
            )

    @staticmethod
    def _peak_bytes(n_queries: int, per_row: bool) -> int:
        model = _model()
        rows = oracle.code_matrix(_chunk_rows(n_queries))
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
