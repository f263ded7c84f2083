"""Unit tests for ARQ transfers, multi-tag cells, interference, and CLI."""

import numpy as np
import pytest

from repro.baselines.interference import (
    BackscatterEmitter,
    VictimNetwork,
    channel_shift_emitter,
    collision_probability,
    victim_airtime_overhead,
    victim_goodput_fraction,
    witag_emitter,
)
from repro.cli import main
from repro.core.arq import ArqTransfer, TransferReport
from repro.core.config import WiTagConfig
from repro.sim.scenario import los_scenario
from repro.tag.state_machine import TagStateMachine
from tests.oracles.link import MultiTagCell, TagEndpoint


class TestArqTransfer:
    def test_easy_position_first_attempt(self):
        system, _ = los_scenario(1.0, seed=70)
        report = ArqTransfer(system).send(b"easy")
        assert report.delivered
        assert report.attempts == 1
        assert report.effective_rate_bps > 1e3

    def test_midspan_eventually_delivers(self):
        delivered = 0
        for seed in range(6):
            system, _ = los_scenario(4.0, seed=80 + seed)
            report = ArqTransfer(system, max_attempts=6).send(b"mid-span")
            delivered += report.delivered
        assert delivered >= 5

    def test_report_accounting(self):
        system, _ = los_scenario(2.0, seed=71)
        report = ArqTransfer(system).send(b"x" * 30)
        assert report.queries >= report.attempts
        assert report.airtime_s > 0
        assert report.message_bits == 8 * (2 + 30 + 2)

    def test_lost_transfer_reports_zero_rate(self):
        report = TransferReport(
            delivered=False, attempts=4, queries=8, airtime_s=0.01,
            message_bits=100,
        )
        assert report.effective_rate_bps == 0.0

    def test_send_all(self):
        system, _ = los_scenario(1.5, seed=72)
        reports = ArqTransfer(system).send_all([b"a", b"b", b"c"])
        assert len(reports) == 3
        assert all(r.delivered for r in reports)

    def test_validation(self):
        system, _ = los_scenario(1.0, seed=73)
        with pytest.raises(ValueError):
            ArqTransfer(system, max_attempts=0)


def make_cell(names_distances, seed=90):
    endpoints = {}
    for i, (name, d) in enumerate(names_distances):
        system, _ = los_scenario(d, seed=seed + i)
        endpoints[name] = TagEndpoint(
            name=name,
            tag=TagStateMachine(rng=np.random.default_rng(seed + 10 + i)),
            error_model=system.error_model,
            rx_power_dbm=system.rx_power_at_tag_dbm,
        )
    return MultiTagCell(
        config=WiTagConfig(),
        endpoints=endpoints,
        rng=np.random.default_rng(seed + 20),
    )


class TestMultiTagCell:
    def test_addressed_query_selects_one_tag(self):
        cell = make_cell([("door", 1.5), ("window", 6.0)])
        cell.load_bits("door", [1, 0] * 31)
        cell.load_bits("window", [0, 1] * 31)
        result = cell.run_query(address="door")
        assert result.responded == ("door",)
        errors = sum(
            a != b for a, b in zip(result.per_tag_sent["door"], result.raw_bits)
        )
        assert errors <= 3
        # The window tag kept its bits queued.
        assert cell.endpoints["window"].tag.pending_bits == 62

    def test_broadcast_collides(self):
        cell = make_cell([("door", 1.5), ("window", 6.0)])
        cell.load_bits("door", [1, 0] * 31)
        cell.load_bits("window", [0, 1] * 31)
        result = cell.run_query()
        assert set(result.responded) == {"door", "window"}
        # With complementary patterns, the union of corruption wipes out
        # roughly every subframe one of them wanted intact.
        errors = sum(
            a != b for a, b in zip(result.per_tag_sent["door"], result.raw_bits)
        )
        assert errors > 20

    def test_poll_round_covers_all(self):
        cell = make_cell([("a", 1.0), ("b", 3.0), ("c", 7.0)])
        for name in ("a", "b", "c"):
            cell.load_bits(name, [1, 1, 0, 0] * 15 + [1, 0])
        results = cell.poll_round()
        assert sorted(results) == ["a", "b", "c"]
        for name, result in results.items():
            assert result.responded == (name,)

    def test_idle_cell_all_ones(self):
        cell = make_cell([("solo", 2.0)])
        result = cell.run_query(address="solo")
        assert result.responded == ()
        assert all(bit == 1 for bit in result.raw_bits)

    def test_unknown_address(self):
        cell = make_cell([("solo", 2.0)])
        with pytest.raises(KeyError, match="unknown tag"):
            cell.run_query(address="ghost")
        with pytest.raises(KeyError):
            cell.load_bits("ghost", [1])

    def test_empty_cell_rejected(self):
        with pytest.raises(ValueError):
            MultiTagCell(config=WiTagConfig(), endpoints={})


class TestInterference:
    def test_witag_emits_nothing(self):
        victim = VictimNetwork()
        assert collision_probability(victim, witag_emitter()) == 0.0
        assert victim_goodput_fraction(victim, witag_emitter()) == 1.0
        assert victim_airtime_overhead(victim, witag_emitter()) == 1.0

    def test_channel_shift_collides(self):
        victim = VictimNetwork()
        emitter = channel_shift_emitter(queries_per_second=600)
        p = collision_probability(victim, emitter)
        assert p > 0.5

    def test_collision_grows_with_rate(self):
        victim = VictimNetwork()
        probs = [
            collision_probability(victim, channel_shift_emitter(r))
            for r in (10, 100, 1000)
        ]
        assert probs == sorted(probs)

    def test_retries_buy_goodput(self):
        emitter = channel_shift_emitter(queries_per_second=200)
        tolerant = VictimNetwork(retry_limit=6)
        fragile = VictimNetwork(retry_limit=0)
        assert victim_goodput_fraction(
            tolerant, emitter
        ) > victim_goodput_fraction(fragile, emitter)

    def test_overhead_at_least_one(self):
        victim = VictimNetwork()
        for rate in (0.0, 50.0, 500.0):
            emitter = channel_shift_emitter(queries_per_second=rate)
            assert victim_airtime_overhead(victim, emitter) >= 1.0

    def test_duty_cycle(self):
        emitter = BackscatterEmitter(
            burst_airtime_s=1e-3, bursts_per_second=100
        )
        assert emitter.duty_cycle == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            VictimNetwork(frame_airtime_s=0)
        with pytest.raises(ValueError):
            VictimNetwork(retry_limit=-1)
        with pytest.raises(ValueError):
            BackscatterEmitter(burst_airtime_s=-1)


class TestCli:
    def test_power(self, capsys):
        assert main(["power"]) == 0
        out = capsys.readouterr().out
        assert "WiTAG" in out and "uW" in out

    def test_compare(self, capsys):
        assert main(["compare"]) == 0
        assert "HitchHike" in capsys.readouterr().out

    def test_throughput(self, capsys):
        assert main(["throughput", "--subframes", "32"]) == 0
        out = capsys.readouterr().out
        assert "Kbps" in out

    def test_quickstart(self, capsys):
        assert main(["quickstart", "--message", "cli", "--seed", "7"]) == 0
        assert "delivered" in capsys.readouterr().out

    def test_fig5_short(self, capsys):
        assert main(["fig5", "--seconds", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_fig6_short(self, capsys):
        assert main(["fig6", "--runs", "1", "--seconds", "0.05"]) == 0
        assert "p90" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])


class TestCliExtras:
    def test_interference_command(self, capsys):
        assert main(["interference", "--rate", "100"]) == 0
        out = capsys.readouterr().out
        assert "WiTAG" in out and "channel-shift" in out

    def test_pcap_command(self, tmp_path, capsys):
        output = str(tmp_path / "cap.pcap")
        assert main(["pcap", output, "--queries", "1"]) == 0
        out = capsys.readouterr().out
        assert "wrote 65 frames" in out
        from repro.sim.pcap import read_pcap

        assert len(read_pcap(output)) == 65
