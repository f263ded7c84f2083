"""Unit and integration tests for the end-to-end system and sessions."""

import numpy as np
import pytest

from repro.core.session import MeasurementSession
from repro.core.system import WiTagSystem
from repro.mac.block_ack import BlockAck
from repro.runner import run_sessions
from repro.sim.scenario import los_scenario
from tests.oracles import link as oracle


@pytest.fixture(scope="module")
def endpoint_system():
    system, _ = los_scenario(1.0, seed=42)
    return system


def fresh_system(d=1.0, seed=42):
    system, _ = los_scenario(d, seed=seed)
    return system


class TestRunQuery:
    def test_transfers_bits(self):
        system = fresh_system()
        bits = [1, 0, 1, 1, 0, 0, 1, 0] * 7 + [1, 0, 1, 0, 1, 0]
        system.load_tag_bits(bits)
        result = system.run_query()
        assert result.detected
        assert result.n_bits == 62
        assert result.bit_errors <= 5  # near-endpoint: very low error

    def test_mostly_correct_bits(self):
        system = fresh_system()
        rng = np.random.default_rng(0)
        errors = bits = 0
        for _ in range(20):
            data = rng.integers(0, 2, 62).tolist()
            system.load_tag_bits([int(b) for b in data])
            result = system.run_query()
            errors += result.bit_errors
            bits += result.n_bits
        assert errors / bits < 0.03

    def test_block_ack_is_parseable_frame(self):
        system = fresh_system()
        system.load_tag_bits([1, 0] * 31)
        result = system.run_query()
        parsed = BlockAck.parse(result.block_ack.serialize())
        assert parsed.bitmap == result.block_ack.bitmap

    def test_trigger_subframes_always_decodable(self):
        """Trigger subframes are never corrupted by the tag."""
        system = fresh_system()
        system.load_tag_bits([0] * 62)  # corrupt everything else
        result = system.run_query()
        assert result.block_ack.bit(0)
        assert result.block_ack.bit(1)

    def test_empty_queue_sends_idle(self):
        system = fresh_system()
        result = system.run_query()
        assert result.n_bits == 0
        # With no tag activity every subframe should decode.
        assert all(result.block_ack.bits(64))

    def test_cycle_time_plausible(self):
        system = fresh_system()
        system.load_tag_bits([1] * 62)
        result = system.run_query()
        assert 1.3e-3 < result.cycle_s < 1.7e-3

    def test_rx_power_at_tag(self):
        system = fresh_system(d=1.0)
        # 15 dBm - FSPL(1 m) ~= -25 dBm.
        assert system.rx_power_at_tag_dbm == pytest.approx(-25.2, abs=1.0)


class TestMeasurementSession:
    def test_run_for_duration(self):
        session = MeasurementSession(
            fresh_system(), rng=np.random.default_rng(1)
        )
        stats = session.run_for(0.5)
        assert stats.elapsed_s >= 0.5
        assert stats.queries >= 300  # ~1.46 ms per cycle
        assert stats.bits_sent == stats.queries * 62

    def test_ber_low_at_endpoint(self):
        session = MeasurementSession(
            fresh_system(), rng=np.random.default_rng(2)
        )
        stats = session.run_for(1.0)
        assert stats.ber < 0.02

    def test_throughput_near_headline(self):
        """Paper: ~40 Kbps end to end."""
        session = MeasurementSession(
            fresh_system(), rng=np.random.default_rng(3)
        )
        stats = session.run_for(1.0)
        assert 38e3 < stats.throughput_bps < 45e3

    def test_run_queries_mode(self):
        session = MeasurementSession(
            fresh_system(), rng=np.random.default_rng(4)
        )
        stats = session.run_queries(10)
        assert stats.queries == 10

    def test_per_query_ber_shape(self):
        session = MeasurementSession(
            fresh_system(), rng=np.random.default_rng(5)
        )
        session.run_queries(20)
        per_query = session.per_query_ber()
        assert len(per_query) == 20
        assert all(0.0 <= b <= 1.0 for b in per_query)

    def test_validation(self):
        session = MeasurementSession(fresh_system())
        with pytest.raises(ValueError):
            session.run_for(0.0)
        with pytest.raises(ValueError):
            session.run_queries(0)

    @pytest.mark.parametrize("fast", [True, False], ids=["batch", "scalar"])
    def test_repeated_calls_report_their_own_cycles(self, fast):
        # Each call's stats cover that call's cycles only, so two
        # equal-length calls report about the same throughput, and the
        # calls' counts add up to the cumulative stats().
        # "scalar" runs the per-query oracle loop.
        session = (MeasurementSession if fast else oracle.Session)(
            fresh_system(d=4.0), rng=np.random.default_rng(8)
        )
        first = session.run_for(0.2)
        second = session.run_for(0.2)
        total = session.stats()
        assert first.queries + second.queries == total.queries
        assert first.bits_sent + second.bits_sent == total.bits_sent
        assert first.bit_errors + second.bit_errors == total.bit_errors
        assert first.elapsed_s + second.elapsed_s == pytest.approx(
            total.elapsed_s
        )
        assert second.throughput_bps == pytest.approx(
            first.throughput_bps, rel=0.05
        )
        assert total.throughput_bps == pytest.approx(
            first.throughput_bps, rel=0.05
        )
        more = session.run_queries(10)
        assert more.queries == 10
        assert session.stats().queries == total.queries + 10

    def test_deterministic_given_seeds(self):
        a = MeasurementSession(
            fresh_system(seed=9), rng=np.random.default_rng(7)
        ).run_queries(5)
        b = MeasurementSession(
            fresh_system(seed=9), rng=np.random.default_rng(7)
        ).run_queries(5)
        assert a.bit_errors == b.bit_errors
        assert a.elapsed_s == b.elapsed_s


def _fixed_seed_session(ctx):
    """Engine session builder replaying the serial loop's exact seeding."""
    return MeasurementSession(
        fresh_system(seed=9), rng=np.random.default_rng(7)
    )


def _substream_session(ctx):
    """Engine session builder drawing from the unit's substreams."""
    return MeasurementSession(fresh_system(seed=ctx.seed), rng=ctx.rng(1))


class TestSessionViaEngine:
    """run_queries through the parallel engine == the serial loop."""

    QUERIES = 25

    def serial_stats(self):
        return MeasurementSession(
            fresh_system(seed=9), rng=np.random.default_rng(7)
        ).run_queries(self.QUERIES)

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_engine_matches_serial_loop_exactly(self, n_workers):
        """SessionStats equality is field-exact, not approximate."""
        expected = self.serial_stats()
        result = run_sessions(
            _fixed_seed_session,
            1,
            queries=self.QUERIES,
            n_workers=n_workers,
        )
        (stats,) = result.values
        assert stats == expected  # frozen dataclass: all fields compared
        assert stats.ber == expected.ber
        assert stats.throughput_bps == expected.throughput_bps

    def test_many_sessions_each_match_their_serial_run(self):
        result = run_sessions(
            _substream_session, 3, queries=5, seed=17, n_workers=2
        )
        for point, stats in zip(result.points, result.values):
            serial = MeasurementSession(
                fresh_system(seed=point.seed),
                rng=np.random.default_rng(
                    np.random.SeedSequence(
                        17,
                        spawn_key=(point.parameters["session"], 1),
                    )
                ),
            ).run_queries(5)
            assert stats == serial
