"""Unit tests for CSI estimation/equalization and the MPDU error model.

The per-subframe CSI estimate, zero-forcing SINR and EESM live in the
test oracle (``tests/oracles/link.py``), which the engine's 2-D decode
must equal bit for bit; their physics is checked here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.channel import BackscatterChannel, ChannelGeometry, TagState
from repro.phy.coding import (
    coded_bit_error_rate_batch,
    packet_error_rate_batch,
)
from repro.phy.csi import EESM_BETA, eesm_effective_sinr_batch
from repro.phy.error_model import (
    FadingBatch,
    FadingSample,
    LinkErrorModel,
    mpdu_success_probabilities,
)
from repro.phy.mcs import ht_mcs, vht_mcs
from repro.phy.modulation import Modulation
from tests.oracles.link import (
    eesm_effective_sinr,
    estimate_csi,
    per_subcarrier_sinr,
    code_matrix,
    sample_fading,
)


def mpdu_success_probability(mcs, mpdu_bits, sinr):
    """One MPDU's success probability from the engine's coding read."""
    return float(
        mpdu_success_probabilities(mcs, mpdu_bits, np.array([sinr]))[0]
    )


def flat_channel(n=52, gain=1e-3):
    return np.full(n, gain, dtype=complex)


class TestEstimateCsi:
    def test_error_shrinks_with_snr(self):
        rng = np.random.default_rng(0)
        h = flat_channel()
        noisy = estimate_csi(h, 10.0, rng).h
        rng = np.random.default_rng(0)
        clean = estimate_csi(h, 1e6, rng).h
        assert np.mean(np.abs(clean - h)) < np.mean(np.abs(noisy - h))

    def test_training_averaging_helps(self):
        h = flat_channel()
        errs = []
        for n_train in (1, 8):
            rng = np.random.default_rng(1)
            est = estimate_csi(h, 100.0, rng, n_training_symbols=n_train).h
            errs.append(float(np.mean(np.abs(est - h))))
        assert errs[1] < errs[0]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            estimate_csi(flat_channel(), 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            estimate_csi(
                flat_channel(), 10.0, np.random.default_rng(0),
                n_training_symbols=0,
            )


class TestPerSubcarrierSinr:
    def test_perfect_estimate_noise_limited(self):
        h = flat_channel(gain=1.0)
        sinr = per_subcarrier_sinr(h, h, 100.0)
        assert np.allclose(sinr, 100.0)

    def test_mismatch_caps_sinr(self):
        h = flat_channel(gain=1.0)
        stale = h * 1.1  # 10% amplitude error
        sinr = per_subcarrier_sinr(h, stale, 1e9)
        # Distortion-limited: ~1 / |1/1.1 - 1|^2 ~= 121.
        assert np.allclose(sinr, 121.0, rtol=0.01)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            per_subcarrier_sinr(flat_channel(52), flat_channel(26), 10.0)

    def test_nonpositive_snr_rejected(self):
        h = flat_channel()
        with pytest.raises(ValueError):
            per_subcarrier_sinr(h, h, 0.0)


class TestEesm:
    def test_flat_sinr_is_identity(self):
        sinrs = np.full(52, 100.0)
        for modulation in Modulation:
            assert eesm_effective_sinr(sinrs, modulation) == pytest.approx(
                100.0
            )

    def test_effective_between_min_and_mean(self):
        sinrs = np.array([10.0, 100.0, 1000.0])
        eff = eesm_effective_sinr(sinrs, Modulation.QAM64)
        assert sinrs.min() <= eff <= sinrs.mean()

    def test_deep_fade_drags_effective_down(self):
        clean = np.full(52, 1000.0)
        faded = clean.copy()
        faded[:5] = 1.0
        assert eesm_effective_sinr(
            faded, Modulation.QAM64
        ) < eesm_effective_sinr(clean, Modulation.QAM64)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            eesm_effective_sinr(np.array([]), Modulation.QPSK)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            eesm_effective_sinr(np.array([-1.0]), Modulation.QPSK)


#: EESM exponents ``(min - SINR) / beta``: ordinary ones, ones in the
#: band where ``exp`` is subnormal, and ones where it underflows to 0.
_EXPONENTS = st.one_of(
    st.floats(-40.0, 0.0),
    st.floats(-746.0, -708.0, exclude_min=True),
    st.floats(-1e4, -746.0),
)


@st.composite
def _exponent_rows(draw):
    """``(floors, exponents)``: per row, a minimum SINR and n exponents.

    Each row holds one zero exponent, its minimum; the SINRs of a
    modulation are ``floor - exponent * beta``.
    """
    n = draw(st.integers(1, 64))
    n_rows = draw(st.integers(1, 4))
    floors, rows = [], []
    for _ in range(n_rows):
        floors.append(draw(st.floats(0.0, 1e3)))
        row = draw(st.lists(_EXPONENTS, min_size=n - 1, max_size=n - 1))
        row.insert(draw(st.integers(0, n - 1)), 0.0)
        rows.append(row)
    return np.array(floors), np.array(rows)


class TestEesmBatch:
    """The decode's EESM: it skips ``exp`` where ``exp`` underflows, and
    still equals the oracle bit for bit."""

    def test_skipped_exponents_round_to_zero(self):
        # The skip is exact because exp is already 0.0 at -746 and below.
        exponents = np.concatenate(
            [[-746.0], np.linspace(-1e4, -746.0, 1001), [-np.inf]]
        )
        assert np.exp(exponents).tolist() == [0.0] * exponents.size

    def test_rejects_negative_sinrs_and_bad_shapes(self):
        with pytest.raises(ValueError, match="non-negative"):
            eesm_effective_sinr_batch(
                np.array([[4.0, 1.0], [2.0, -1.0]]), Modulation.QPSK
            )
        for shape in [(52,), (3, 0)]:
            with pytest.raises(ValueError, match="matrix"):
                eesm_effective_sinr_batch(np.ones(shape), Modulation.QPSK)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_exponent_rows())
    def test_rows_match_oracle(self, drawn):
        floors, exponents = drawn
        for modulation in Modulation:
            sinrs = floors[:, None] - exponents * EESM_BETA[modulation]
            batch = eesm_effective_sinr_batch(sinrs, modulation)
            expected = np.array(
                [eesm_effective_sinr(row, modulation) for row in sinrs]
            )
            assert batch.view(np.int64).tolist() == (
                expected.view(np.int64).tolist()
            ), modulation


class TestMpduSuccess:
    def test_high_sinr_succeeds(self):
        assert mpdu_success_probability(ht_mcs(7), 1000, 1e5) > 0.999

    def test_low_sinr_fails(self):
        assert mpdu_success_probability(ht_mcs(7), 1000, 1.0) < 0.01

    def test_monotone_in_sinr(self):
        probs = [
            mpdu_success_probability(ht_mcs(5), 1000, 10**x)
            for x in (0.5, 1.0, 1.5, 2.0, 2.5)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(probs, probs[1:]))

    def test_longer_mpdu_more_fragile(self):
        sinr = 10 ** 2.1
        assert mpdu_success_probability(
            ht_mcs(7), 10_000, sinr
        ) < mpdu_success_probability(ht_mcs(7), 100, sinr)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            mpdu_success_probability(ht_mcs(0), 0, 10.0)


def probe_sinr_matrix():
    """Linear SINRs over the ranges the simulator visits.

    Deep fades, mid-range and very strong rows, plus an all-zero row
    and a row with every third subcarrier at zero.
    """
    rng = np.random.default_rng(0x5EED_CAFE)
    base = rng.uniform(0.0, 40.0, size=(17, 56))
    base[3] *= 1e-6
    base[5] *= 1e4
    base[7, :] = 0.0
    base[11, ::3] = 0.0
    return base


class TestMpduSuccessProbabilities:
    """The vectorized fast path: uncoded BER -> coded BER -> PER."""

    def test_mpdu_success_matches_composed_reference(self):
        probe = probe_sinr_matrix()
        bits = np.full(probe.shape, 12000.0)
        bits[::2] = 288.0
        for index in range(10):
            mcs = vht_mcs(index)
            uncoded = mcs.modulation.bit_error_rate_array(
                np.maximum(probe, 0.0)
            )
            coded = coded_bit_error_rate_batch(mcs.coding_rate, uncoded)
            expected = 1.0 - packet_error_rate_batch(coded, bits)
            out = mpdu_success_probabilities(mcs, bits, probe)
            assert out.shape == expected.shape
            assert out.tobytes() == expected.tobytes()

    def test_mpdu_success_broadcasts_scalar_bits(self):
        row = probe_sinr_matrix()[0]
        out = mpdu_success_probabilities(vht_mcs(4), 8000, row)
        assert out.shape == row.shape
        assert np.all((out >= 0.0) & (out <= 1.0))


def make_model(d_tag=4.0, seed=5, **kwargs):
    geometry = ChannelGeometry.on_line(8.0, d_tag)
    channel = BackscatterChannel(
        geometry=geometry, rng=np.random.default_rng(seed)
    )
    return LinkErrorModel(
        channel=channel,
        mcs=ht_mcs(7),
        rng=np.random.default_rng(seed + 1),
        **kwargs,
    )


def one_row(fading: FadingSample) -> FadingBatch:
    return FadingBatch(
        direct_gains=np.array([fading.direct_gain]),
        tag_fadings=np.array([fading.tag_fading]),
    )


def subframe_sinr(model, preamble, state, fading) -> float:
    """The engine's effective SINR for a one-subframe, one-query chunk."""
    return float(
        model.subframe_effective_sinrs_batch2d(
            preamble, code_matrix([[state]]), one_row(fading)
        )[0, 0]
    )


class TestLinkErrorModel:
    def test_received_snr_plausible(self):
        model = make_model()
        # 15 dBm - ~58 dB FSPL - (-95 dBm floor) ~= 52 dB.
        assert model.received_snr_db(TagState.REFLECT_0) == pytest.approx(
            52.0, abs=2.0
        )

    def test_idle_subframe_high_sinr(self):
        model = make_model()
        fading = sample_fading(model)
        sinr = subframe_sinr(
            model, TagState.REFLECT_0, TagState.REFLECT_0, fading
        )
        assert 10 * math.log10(sinr) > 22.0

    def test_flip_subframe_low_sinr(self):
        model = make_model()
        fading = sample_fading(model)
        idle = subframe_sinr(
            model, TagState.REFLECT_0, TagState.REFLECT_0, fading
        )
        flipped = subframe_sinr(
            model, TagState.REFLECT_0, TagState.REFLECT_180, fading
        )
        assert flipped < idle / 10.0

    def test_corruption_succeeds_with_high_probability(self):
        model = make_model(d_tag=1.0)
        fading = FadingSample(
            direct_gain=model.channel.direct_gain, tag_fading=1.0 + 0j
        )
        p = model.subframe_success_probabilities_batch2d(
            1000,
            TagState.REFLECT_0,
            code_matrix([[TagState.REFLECT_180]]),
            one_row(fading),
        )[0, 0]
        assert p < 0.05

    def test_idle_subframe_decodes(self):
        model = make_model()
        fading = FadingSample(
            direct_gain=model.channel.direct_gain, tag_fading=1.0 + 0j
        )
        p = model.subframe_success_probabilities_batch2d(
            1000,
            TagState.REFLECT_0,
            code_matrix([[TagState.REFLECT_0]]),
            one_row(fading),
        )[0, 0]
        assert p > 0.99

    def test_mismatch_gain_zero_weakens_corruption(self):
        # Same seeds, so both models draw the same CSI estimation noise.
        strong = make_model(mismatch_gain_db=22.0)
        weak = make_model(mismatch_gain_db=0.0)
        fading = FadingSample(
            direct_gain=strong.channel.direct_gain, tag_fading=1.0 + 0j
        )
        assert subframe_sinr(
            strong, TagState.REFLECT_0, TagState.REFLECT_180, fading
        ) < subframe_sinr(
            weak, TagState.REFLECT_0, TagState.REFLECT_180, fading
        )

    def test_outcome_is_bernoulli(self):
        model = make_model()
        outcomes = model.subframe_outcomes_batch2d(
            1000,
            TagState.REFLECT_0,
            code_matrix([[TagState.REFLECT_180]] * 50),
            model.sample_fading_batch(50),
        )
        assert outcomes.dtype == bool
        assert outcomes.shape == (50, 1)

    def test_tx_referred_snr(self):
        model = make_model()
        # 15 dBm over a -95 dBm floor: 110 dB.
        assert 10 * math.log10(
            model.tx_referred_snr_linear
        ) == pytest.approx(110.0, abs=0.5)
