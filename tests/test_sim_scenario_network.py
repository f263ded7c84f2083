"""Unit tests for scenario builders and multi-tag/traffic models."""

import numpy as np
import pytest

from repro.core.config import EncryptionMode
from repro.phy.mcs import ht_mcs
from repro.sim.network import TagPoller, TrafficStation
from repro.sim.scenario import build_system, los_scenario, nlos_scenario
from repro.phy.channel import ChannelGeometry


class TestLosScenario:
    def test_geometry(self):
        _, info = los_scenario(3.0)
        assert info.geometry.tx_tag_m == 3.0
        assert info.geometry.tag_rx_m == 5.0
        assert info.direct_obstruction_db == 0.0

    def test_picks_top_mcs_at_8m(self):
        """Paper Section 4.1: highest near-zero-loss rate; 8 m LOS -> MCS7."""
        _, info = los_scenario(4.0)
        assert info.mcs_index == 7
        assert info.tag_clock_hz == 50e3

    def test_tag_position_validated(self):
        with pytest.raises(ValueError):
            los_scenario(9.0)

    def test_seed_isolation(self):
        sys_a, _ = los_scenario(2.0, seed=1)
        sys_b, _ = los_scenario(2.0, seed=1)
        sys_a.load_tag_bits([1, 0] * 31)
        sys_b.load_tag_bits([1, 0] * 31)
        ra = sys_a.run_query()
        rb = sys_b.run_query()
        assert ra.block_ack.bitmap == rb.block_ack.bitmap


class TestNlosScenario:
    def test_locations(self):
        _, info_a = nlos_scenario("A")
        _, info_b = nlos_scenario("B")
        assert info_a.geometry.tx_rx_m == pytest.approx(7.0, abs=0.5)
        assert info_b.geometry.tx_rx_m == pytest.approx(17.0, abs=0.5)
        assert info_b.link_snr_db < info_a.link_snr_db

    def test_rate_adapts_down(self):
        _, info_a = nlos_scenario("A")
        _, info_b = nlos_scenario("B")
        assert info_b.mcs_index <= info_a.mcs_index

    def test_invalid_location(self):
        with pytest.raises(ValueError):
            nlos_scenario("C")


class TestBuildSystem:
    def test_encryption_passthrough(self):
        system, _ = build_system(
            ChannelGeometry.on_line(8.0, 2.0),
            encryption=EncryptionMode.WPA2_CCMP,
        )
        assert system.config.encryption is EncryptionMode.WPA2_CCMP

    def test_explicit_mcs_respected(self):
        _, info = build_system(
            ChannelGeometry.on_line(8.0, 2.0), mcs=ht_mcs(3)
        )
        assert info.mcs_index == 3

    def test_contenders_wire_contention_model(self):
        system, _ = build_system(
            ChannelGeometry.on_line(8.0, 2.0), n_contenders=5
        )
        assert system.contention is not None
        assert system.contention.n_contenders == 5

    def test_low_mcs_gets_slower_tag_clock(self):
        _, info = build_system(
            ChannelGeometry.on_line(8.0, 2.0), mcs=ht_mcs(0)
        )
        assert info.tag_clock_hz < 50e3


class TestTrafficStation:
    def test_activity(self):
        station = TrafficStation("s1", offered_load_fps=100, frame_airtime_s=1e-3)
        assert station.channel_activity == pytest.approx(0.1)

    def test_activity_capped(self):
        station = TrafficStation("s1", offered_load_fps=5000, frame_airtime_s=1e-3)
        assert station.channel_activity == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficStation("x", offered_load_fps=-1)
        with pytest.raises(ValueError):
            TrafficStation("x", frame_airtime_s=0)


class TestTagPoller:
    def test_polls_all_tags(self):
        systems = {
            "door": los_scenario(1.0, seed=1)[0],
            "window": los_scenario(6.0, seed=2)[0],
        }
        poller = TagPoller(systems, dwell_s=0.05)
        results = poller.run_rounds(2)
        assert {r.tag_name for r in results} == {"door", "window"}
        for result in results:
            assert result.stats.bits_sent > 0
            assert result.stats.ber < 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            TagPoller({})
        with pytest.raises(ValueError):
            TagPoller({"a": los_scenario(1.0)[0]}, dwell_s=0.0)
        poller = TagPoller({"a": los_scenario(1.0)[0]}, dwell_s=0.05)
        with pytest.raises(ValueError):
            poller.run_rounds(0)


class TestApInitiated:
    """Paper Section 4: either device can initiate; both get the data."""

    def test_roles_swap_geometry(self):
        _, client_info = los_scenario(2.0, seed=5)
        _, ap_info = los_scenario(2.0, initiator="ap", seed=5)
        assert client_info.geometry.tx_tag_m == pytest.approx(2.0)
        assert ap_info.geometry.tx_tag_m == pytest.approx(6.0)
        assert ap_info.geometry.tag_rx_m == pytest.approx(2.0)

    def test_ber_comparable_either_direction(self):
        import numpy as np
        from repro.core.session import MeasurementSession

        bers = {}
        for initiator in ("client", "ap"):
            system, _ = los_scenario(3.0, initiator=initiator, seed=6)
            stats = MeasurementSession(
                system, rng=np.random.default_rng(3)
            ).run_for(0.5)
            bers[initiator] = stats.ber
        assert bers["ap"] == pytest.approx(bers["client"], abs=0.03)

    def test_invalid_initiator(self):
        with pytest.raises(ValueError):
            los_scenario(2.0, initiator="tag")
