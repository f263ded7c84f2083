"""Property-based tests on PHY-layer invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import WiTagConfig
from repro.core.throughput import analytic_throughput_bps
from repro.mac.duration import duration_field_us
from repro.phy.airtime import ppdu_airtime
from repro.phy.channel import ChannelGeometry, PathLossModel
from repro.phy.coding import coded_bit_error_rate, packet_error_rate
from tests.oracles.link import eesm_effective_sinr
from repro.phy.mcs import ht_mcs, vht_mcs
from repro.phy.modulation import (
    Modulation,
    RATE_1_2,
    snr_db_to_linear,
    snr_linear_to_db,
)
from repro.tag.timing import TimingModel
from repro.tag.oscillator import witag_crystal_50khz

snr_db = st.floats(min_value=-20.0, max_value=60.0)
distances = st.floats(min_value=0.1, max_value=100.0)


class TestModulationProperties:
    @settings(max_examples=50)
    @given(snr_db, st.sampled_from(list(Modulation)))
    def test_ber_in_range(self, db, modulation):
        ber = modulation.bit_error_rate(snr_db_to_linear(db))
        assert 0.0 <= ber <= 0.5

    @settings(max_examples=50)
    @given(
        st.floats(min_value=-10, max_value=40),
        st.floats(min_value=0.1, max_value=10),
        st.sampled_from(list(Modulation)),
    )
    def test_ber_monotone(self, db, delta, modulation):
        low = modulation.bit_error_rate(snr_db_to_linear(db))
        high = modulation.bit_error_rate(snr_db_to_linear(db + delta))
        assert high <= low + 1e-12

    @settings(max_examples=30)
    @given(st.floats(min_value=-30, max_value=30))
    def test_snr_conversion_roundtrip(self, db):
        assert snr_linear_to_db(snr_db_to_linear(db)) == pytest.approx(db)


class TestCodingProperties:
    @settings(max_examples=50)
    @given(st.floats(min_value=0.0, max_value=0.5))
    def test_coded_ber_bounded(self, p):
        coded = coded_bit_error_rate(RATE_1_2, p)
        assert 0.0 <= coded <= 0.5

    @settings(max_examples=50)
    @given(
        st.floats(min_value=0.0, max_value=0.4),
        st.integers(min_value=0, max_value=100_000),
    )
    def test_per_is_probability(self, ber, bits):
        per = packet_error_rate(ber, bits)
        assert 0.0 <= per <= 1.0

    @settings(max_examples=50)
    @given(
        st.floats(min_value=1e-6, max_value=0.4),
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=1, max_value=10),
    )
    def test_per_monotone_in_length(self, ber, bits, extra):
        assert packet_error_rate(ber, bits) <= packet_error_rate(
            ber, bits + extra
        ) + 1e-15


class TestAirtimeProperties:
    @settings(max_examples=50)
    @given(
        st.integers(min_value=0, max_value=60_000),
        st.integers(min_value=0, max_value=7),
    )
    def test_airtime_positive_and_monotone(self, psdu, mcs_index):
        mcs = ht_mcs(mcs_index)
        t1 = ppdu_airtime(psdu, mcs).total_s
        t2 = ppdu_airtime(psdu + 100, mcs).total_s
        assert t1 > 0
        assert t2 >= t1

    @settings(max_examples=50)
    @given(
        st.integers(min_value=100, max_value=60_000),
        st.integers(min_value=0, max_value=6),
    )
    def test_faster_mcs_never_slower(self, psdu, mcs_index):
        slow = ppdu_airtime(psdu, ht_mcs(mcs_index)).total_s
        fast = ppdu_airtime(psdu, ht_mcs(mcs_index + 1)).total_s
        assert fast <= slow


class TestChannelProperties:
    @settings(max_examples=50)
    @given(distances, st.floats(min_value=1.5, max_value=4.0))
    def test_path_loss_monotone_in_distance(self, d, exponent):
        model = PathLossModel(exponent=exponent)
        wl = 0.125
        assert model.path_loss_db(d + 1.0, wl) > model.path_loss_db(d, wl)

    @settings(max_examples=50)
    @given(st.floats(min_value=0.2, max_value=7.8))
    def test_on_line_geometry_consistent(self, tag_pos):
        geometry = ChannelGeometry.on_line(8.0, tag_pos)
        assert geometry.tx_tag_m + geometry.tag_rx_m == pytest.approx(8.0)
        assert geometry.excess_delay_s == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=50)
    @given(st.floats(min_value=0.2, max_value=7.8))
    def test_reversed_preserves_endpoints(self, tag_pos):
        geometry = ChannelGeometry.on_line(8.0, tag_pos)
        back = geometry.reversed()
        assert back.tx_tag_m == geometry.tag_rx_m
        assert back.tag_rx_m == geometry.tx_tag_m
        assert back.reversed() == geometry


class TestEesmProperties:
    @settings(max_examples=50)
    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=1e6),
            min_size=1,
            max_size=64,
        ),
        st.sampled_from(list(Modulation)),
    )
    def test_effective_bounded_by_min_and_max(self, sinrs, modulation):
        arr = np.asarray(sinrs)
        eff = eesm_effective_sinr(arr, modulation)
        assert eff <= arr.max() + 1e-6
        assert eff >= arr.min() - max(1e-9, arr.min() * 1e-6)


class TestThroughputProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=4, max_value=64))
    def test_rate_monotone_in_subframes(self, n):
        low = analytic_throughput_bps(WiTagConfig(n_subframes=n))
        if n < 64:
            high = analytic_throughput_bps(WiTagConfig(n_subframes=n + 1))
            assert high >= low
        assert low > 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=4))
    def test_vht_rates_positive(self, index, streams):
        rate = vht_mcs(index, streams).data_rate_bps(80, short_gi=True)
        assert rate > vht_mcs(0, 1).data_rate_bps()


class TestTimingProperties:
    @settings(max_examples=40)
    @given(
        st.integers(min_value=0, max_value=63),
        st.floats(min_value=0.1e-6, max_value=3e-6),
    )
    def test_misalignment_probability_valid(self, k, jitter):
        model = TimingModel(
            witag_crystal_50khz(), subframe_s=20e-6, sync_jitter_s=jitter
        )
        p = model.misalignment_probability(k)
        assert 0.0 <= p <= 1.0

    @settings(max_examples=40)
    @given(st.floats(min_value=16e-6, max_value=24e-6))
    def test_grid_snap_bounds_target(self, estimate):
        model = TimingModel(
            witag_crystal_50khz(),
            subframe_s=20e-6,
            period_estimate_s=estimate,
        )
        # Snapped target is a whole number of 4 us symbols.
        ratio = model.target_period_s / 4e-6
        assert ratio == pytest.approx(round(ratio))


class TestDurationProperties:
    @settings(max_examples=50)
    @given(st.floats(min_value=0.0, max_value=0.1))
    def test_duration_covers_time(self, t):
        value = duration_field_us(t)
        assert 0 <= value <= 0x7FFF
        if t <= 0x7FFF * 1e-6:
            assert value * 1e-6 >= t - 1e-12
