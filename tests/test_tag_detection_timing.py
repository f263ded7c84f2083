"""Unit tests for the envelope detector, trigger detection and timing."""

import numpy as np
import pytest

from repro.tag.envelope_detector import (
    Comparator,
    EnvelopeDetector,
    TriggerDetector,
)
from repro.tag.oscillator import ring_oscillator_20mhz, witag_crystal_50khz
from repro.tag.timing import TimingModel
from tests.oracles import link as oracle


class TestEnvelopeDetector:
    def test_sensitivity_floor(self):
        det = EnvelopeDetector(sensitivity_dbm=-46.0)
        assert det.in_range(-30.0)
        assert not det.in_range(-50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnvelopeDetector(output_noise_mv=0.0)
        with pytest.raises(ValueError):
            EnvelopeDetector(slope_mv_per_db=-1.0)


class TestTriggerDetector:
    def test_detection_reliable_at_strong_signal(self):
        det = TriggerDetector()
        assert det.query_detection_probability(-20.0) > 0.999

    def test_no_detection_below_sensitivity(self):
        det = TriggerDetector()
        assert det.query_detection_probability(-60.0) == 0.0

    def test_more_trigger_subframes_less_likely_complete(self):
        weak = TriggerDetector(pattern_contrast_db=1.2)
        strong = TriggerDetector(pattern_contrast_db=1.2, n_trigger_subframes=8)
        p_weak = weak.query_detection_probability(-41.0)
        assert 0 < p_weak < 1
        assert strong.query_detection_probability(-41.0) < p_weak

    def test_stronger_signal_detects_better(self):
        det = TriggerDetector(pattern_contrast_db=1.2)
        assert det.query_detection_probability(
            -30.0
        ) > det.query_detection_probability(-42.0)

    def test_contrast_improves_detection(self):
        low = TriggerDetector(pattern_contrast_db=1.0)
        high = TriggerDetector(pattern_contrast_db=6.0)
        assert high.edge_detection_probability(
            -42.0
        ) > low.edge_detection_probability(-42.0)

    def test_detect_draws(self):
        det = TriggerDetector()
        rng = np.random.default_rng(0)
        assert det.detect(-20.0, rng) is True
        assert det.detect(-60.0, rng) is False

    def test_period_estimate_near_truth(self):
        det = TriggerDetector()
        rng = np.random.default_rng(1)
        estimates = [
            det.subframe_period_estimate_s(20e-6, -25.0, rng)
            for _ in range(200)
        ]
        assert np.mean(estimates) == pytest.approx(20e-6, rel=0.02)
        assert np.std(estimates) < 1.5e-6

    def test_period_estimate_requires_signal(self):
        det = TriggerDetector()
        with pytest.raises(ValueError):
            det.subframe_period_estimate_s(
                20e-6, -80.0, np.random.default_rng(0)
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            TriggerDetector(n_trigger_subframes=0)
        with pytest.raises(ValueError):
            TriggerDetector(pattern_contrast_db=0.0)


class TestTimingModel:
    def test_matched_clock_one_cycle_per_subframe(self):
        tm = TimingModel(witag_crystal_50khz(), subframe_s=20e-6)
        assert tm.cycles_per_subframe == 1
        assert tm.realized_period_s == pytest.approx(20e-6, rel=1e-4)

    def test_crystal_low_miss_probability(self):
        tm = TimingModel(witag_crystal_50khz(), subframe_s=20e-6)
        assert tm.misalignment_probability(63) < 0.01

    def test_ring_oscillator_fails_when_hot(self):
        """Paper Section 7: temperature drift destroys timing."""
        tm = TimingModel(
            ring_oscillator_20mhz(), subframe_s=20e-6, temperature_c=30.0
        )
        assert tm.misalignment_probability(30) > 0.9

    def test_ring_oscillator_fine_at_reference_temp(self):
        tm = TimingModel(
            ring_oscillator_20mhz(), subframe_s=20e-6, temperature_c=25.0
        )
        assert tm.misalignment_probability(30) < 0.05

    def test_misalignment_grows_with_index_under_drift(self):
        tm = TimingModel(
            ring_oscillator_20mhz(), subframe_s=20e-6, temperature_c=26.0
        )
        assert abs(tm.mean_misalignment_s(40)) > abs(tm.mean_misalignment_s(4))

    def test_period_estimate_rounding(self):
        # A 19.7 us estimate still rounds to 1 cycle of the 50 kHz clock.
        tm = TimingModel(
            witag_crystal_50khz(),
            subframe_s=20e-6,
            period_estimate_s=19.7e-6,
        )
        assert tm.cycles_per_subframe == 1

    def test_sampling_matches_probability(self):
        tm = TimingModel(
            witag_crystal_50khz(), subframe_s=20e-6, sync_jitter_s=1.5e-6
        )
        rng = np.random.default_rng(3)
        misses = sum(
            not oracle.aligned(tm, 10, rng) for _ in range(4000)
        ) / 4000
        assert misses == pytest.approx(
            tm.misalignment_probability(10), abs=0.02
        )

    @pytest.mark.parametrize(
        "oscillator", [witag_crystal_50khz, ring_oscillator_20mhz]
    )
    @pytest.mark.parametrize("temperature_c", [-10.0, 25.0, 26.5, 32.0])
    @pytest.mark.parametrize("period_estimate_s", [None, 19.7e-6, 23.9e-6])
    def test_misalignment_params_equal_scalar_methods(
        self, oscillator, temperature_c, period_estimate_s
    ):
        tm = TimingModel(
            oscillator(),
            subframe_s=20e-6,
            period_estimate_s=period_estimate_s,
            temperature_c=temperature_c,
        )
        mu, sigma = tm.misalignment_params(64)
        assert np.array_equal(
            mu, [tm.mean_misalignment_s(k) for k in range(64)]
        )
        assert np.array_equal(
            sigma, [tm.jitter_sigma_s(k) for k in range(64)]
        )

    def test_max_reliable_subframes(self):
        crystal = TimingModel(witag_crystal_50khz(), subframe_s=20e-6)
        hot_ring = TimingModel(
            ring_oscillator_20mhz(), subframe_s=20e-6, temperature_c=32.0
        )
        assert crystal.max_reliable_subframes() >= 64
        assert hot_ring.max_reliable_subframes() < 64

    def test_validation(self):
        with pytest.raises(ValueError):
            TimingModel(witag_crystal_50khz(), subframe_s=0.0)
        with pytest.raises(ValueError):
            TimingModel(witag_crystal_50khz(), subframe_s=1e-6, guard_s=0.0)
        tm = TimingModel(witag_crystal_50khz(), subframe_s=20e-6)
        with pytest.raises(ValueError):
            tm.mean_misalignment_s(-1)
        with pytest.raises(ValueError):
            tm.max_reliable_subframes(target_error=0.0)
