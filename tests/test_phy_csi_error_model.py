"""Unit tests for CSI estimation/equalization and the MPDU error model."""

import math

import numpy as np
import pytest

from repro.phy.channel import BackscatterChannel, ChannelGeometry, TagState
from repro.phy.coding import (
    coded_bit_error_rate_batch,
    packet_error_rate_batch,
)
from repro.phy.csi import (
    eesm_effective_sinr,
    estimate_csi,
    per_subcarrier_sinr,
)
from repro.phy.error_model import (
    FadingSample,
    LinkErrorModel,
    mpdu_success_probabilities,
    mpdu_success_probability,
)
from repro.phy.mcs import ht_mcs, vht_mcs
from repro.phy.modulation import Modulation


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


class TestLinkErrorModel:
    def test_received_snr_plausible(self):
        model = make_model()
        # 15 dBm - ~58 dB FSPL - (-95 dBm floor) ~= 52 dB.
        assert model.received_snr_db(TagState.REFLECT_0) == pytest.approx(
            52.0, abs=2.0
        )

    def test_idle_subframe_high_sinr(self):
        model = make_model()
        fading = model.sample_fading()
        sinr = model.subframe_effective_sinr(
            TagState.REFLECT_0, TagState.REFLECT_0, fading
        )
        assert 10 * math.log10(sinr) > 22.0

    def test_flip_subframe_low_sinr(self):
        model = make_model()
        fading = model.sample_fading()
        idle = model.subframe_effective_sinr(
            TagState.REFLECT_0, TagState.REFLECT_0, fading
        )
        flipped = model.subframe_effective_sinr(
            TagState.REFLECT_0, TagState.REFLECT_180, fading
        )
        assert flipped < idle / 10.0

    def test_corruption_succeeds_with_high_probability(self):
        model = make_model(d_tag=1.0)
        fading = FadingSample(
            direct_gain=model.channel.direct_gain, tag_fading=1.0 + 0j
        )
        p = model.subframe_success_probability(
            1000, TagState.REFLECT_0, TagState.REFLECT_180, fading
        )
        assert p < 0.05

    def test_idle_subframe_decodes(self):
        model = make_model()
        fading = FadingSample(
            direct_gain=model.channel.direct_gain, tag_fading=1.0 + 0j
        )
        p = model.subframe_success_probability(
            1000, TagState.REFLECT_0, TagState.REFLECT_0, fading
        )
        assert p > 0.99

    def test_mismatch_gain_zero_weakens_corruption(self):
        strong = make_model(mismatch_gain_db=22.0)
        weak = make_model(mismatch_gain_db=0.0)
        fading = FadingSample(
            direct_gain=strong.channel.direct_gain, tag_fading=1.0 + 0j
        )
        assert strong.subframe_effective_sinr(
            TagState.REFLECT_0, TagState.REFLECT_180, fading,
            include_estimation_noise=False,
        ) < weak.subframe_effective_sinr(
            TagState.REFLECT_0, TagState.REFLECT_180, fading,
            include_estimation_noise=False,
        )

    def test_outcome_is_bernoulli(self):
        model = make_model()
        outcomes = {
            model.subframe_outcome(
                1000, TagState.REFLECT_0, TagState.REFLECT_180
            )
            for _ in range(50)
        }
        assert outcomes <= {True, False}

    def test_tx_referred_snr(self):
        model = make_model()
        # 15 dBm over a -95 dBm floor: 110 dB.
        assert 10 * math.log10(
            model.tx_referred_snr_linear
        ) == pytest.approx(110.0, abs=0.5)
