"""Traffic layer suite: models, CSMA coupling, scheduler, controllers.

ISSUE 10 satellites 3 and 4.  Statistical checks on the ambient-traffic
models (realised busy fractions against their configured expectations,
seeded and tolerance-based, never flaky), the ContentionModel contract
the scheduler leans on (``mean_access_delay_s`` monotone in offered
load, FIFO activity overrides), the causal decide-then-observe loop,
and the boundary behaviour of both AIMD controllers
(:class:`QueryRateController` floor/ceiling/hysteresis and the
:class:`RedundancyController` parity ladder), and the exact fixed-seed
quality numbers of adaptive scheduling + FEC against the paper's static
scheme.
"""

import functools

import numpy as np
import pytest

from repro.core.rate_control import (
    AdaptiveSession,
    QueryRateController,
    RedundancyController,
)
from repro.core.session import MeasurementSession
from repro.mac.csma import ContentionModel, DcfParameters, DcfStation
from repro.runner import SweepSpec, UnitContext, run_sweep
from repro.runner.workers import AdaptiveLinkSpec, adaptive_link_stats
from repro.sim.scenario import los_scenario
from repro.tag.energy import EnergySimulator
from repro.traffic import (
    AdaptiveFecLink,
    EwmaPredictor,
    HoltPredictor,
    MarkovTraffic,
    OnOffTraffic,
    OpportunityScheduler,
    ScheduledSession,
    TraceReplayTraffic,
)

pytestmark = pytest.mark.adaptive


# ---------------------------------------------------------------------------
# Ambient-traffic models: realised statistics match the configured ones.
# ---------------------------------------------------------------------------


class TestOnOffTraffic:
    def test_realised_mean_matches_expectation(self):
        model = OnOffTraffic(
            rate_fps=600.0,
            mean_on_s=0.05,
            mean_off_s=0.15,
            rng=np.random.default_rng(7),
        )
        # 80 s of 20 ms windows spans ~400 ON/OFF cycles: plenty for
        # the realised mean to settle near duty_cycle * on_activity.
        samples = [model.step(0.02) for _ in range(4000)]
        assert all(0.0 <= s <= 1.0 for s in samples)
        assert model.mean_busy_fraction == pytest.approx(0.225)
        assert np.mean(samples) == pytest.approx(
            model.mean_busy_fraction, abs=0.03
        )

    def test_windows_partition_the_burst_process(self):
        # The same seeded burst process cut into windows of different
        # sizes must report the same total ON time: stepping is exact
        # bookkeeping over sojourns, not a per-window approximation.
        def on_time(window_s, count):
            model = OnOffTraffic(
                rate_fps=1e9,  # on_activity saturates at 1.0
                mean_on_s=0.05,
                mean_off_s=0.15,
                rng=np.random.default_rng(3),
            )
            return sum(model.step(window_s) * window_s for _ in range(count))

        assert on_time(0.02, 500) == pytest.approx(on_time(0.005, 2000))

    def test_start_on_and_validation(self):
        on = OnOffTraffic(
            mean_on_s=100.0, start_on=True, rng=np.random.default_rng(0)
        )
        assert on.step(0.02) == pytest.approx(on.on_activity)
        with pytest.raises(ValueError):
            OnOffTraffic(rate_fps=-1.0)
        with pytest.raises(ValueError):
            OnOffTraffic(mean_on_s=0.0)
        with pytest.raises(ValueError):
            OnOffTraffic().step(0.0)


class TestMarkovTraffic:
    def test_realised_mean_matches_stationary_mean(self):
        model = MarkovTraffic(rng=np.random.default_rng(11))
        # Default sticky two-state chain: pi = (2/3, 1/3) over
        # activities (0.045, 0.9).
        assert model.stationary_distribution == pytest.approx(
            [2 / 3, 1 / 3], abs=1e-9
        )
        assert model.mean_busy_fraction == pytest.approx(0.33, abs=1e-9)
        samples = [model.step(0.02) for _ in range(6000)]
        assert np.mean(samples) == pytest.approx(
            model.mean_busy_fraction, abs=0.04
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="transition matrix"):
            MarkovTraffic(
                rates_fps=(1.0, 2.0), transition=[[1.0]]
            )
        with pytest.raises(ValueError, match="sum to 1"):
            MarkovTraffic(
                rates_fps=(1.0, 2.0),
                transition=[[0.5, 0.4], [0.5, 0.5]],
            )
        with pytest.raises(ValueError, match="exactly 2 states"):
            MarkovTraffic(rates_fps=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="state"):
            MarkovTraffic(state=5)


class TestTraceReplayTraffic:
    def test_replay_is_deterministic(self):
        gaps = [0.004, 0.001, 0.010, 0.002, 0.003]

        def run():
            model = TraceReplayTraffic(gaps)
            return [model.step(0.02) for _ in range(50)]

        first = run()
        assert first == run()
        # Mean arrival rate 1/mean_gap; busy = rate * airtime.
        assert np.mean(first) == pytest.approx(
            TraceReplayTraffic(gaps).mean_busy_fraction, rel=0.1
        )

    def test_file_round_trip(self, tmp_path):
        model = TraceReplayTraffic([0.004, 0.002, 0.008])
        path = tmp_path / "trace.json"
        assert model.to_file(path) == 3
        loaded = TraceReplayTraffic.from_file(path)
        assert loaded.inter_arrivals_s == model.inter_arrivals_s
        fresh = TraceReplayTraffic([0.004, 0.002, 0.008])
        assert [loaded.step(0.02) for _ in range(20)] == [
            fresh.step(0.02) for _ in range(20)
        ]

    def test_plain_text_traces_load_too(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0.004\n0.002\n\n0.008\n")
        assert TraceReplayTraffic.from_file(path).inter_arrivals_s == (
            0.004,
            0.002,
            0.008,
        )
        with pytest.raises(ValueError, match="empty trace"):
            empty = tmp_path / "empty.txt"
            empty.write_text("")
            TraceReplayTraffic.from_file(empty)

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceReplayTraffic([])
        with pytest.raises(ValueError):
            TraceReplayTraffic([0.004, -0.001])


# ---------------------------------------------------------------------------
# CSMA coupling: the contention contract the scheduler's story rests on.
# ---------------------------------------------------------------------------


class TestContentionModel:
    def test_mean_access_delay_monotone_in_activity(self):
        model = ContentionModel(n_contenders=4)
        delays = [
            model.mean_access_delay_s(activity=a)
            for a in np.linspace(0.0, 1.0, 21)
        ]
        assert all(b >= a for a, b in zip(delays, delays[1:]))
        assert delays[-1] > delays[0]

    def test_mean_access_delay_monotone_in_contenders(self):
        delays = [
            ContentionModel(n_contenders=n).mean_access_delay_s(
                activity=0.4
            )
            for n in range(9)
        ]
        assert all(b >= a for a, b in zip(delays, delays[1:]))
        assert delays[-1] > delays[0]

    def test_sampled_mean_matches_analytic(self):
        model = ContentionModel(
            n_contenders=4,
            contender_activity=0.3,
            rng=np.random.default_rng(5),
        )
        samples = [model.sample_access_delay_s() for _ in range(8000)]
        assert np.mean(samples) == pytest.approx(
            model.mean_access_delay_s(), rel=0.05
        )

    def test_push_activity_is_fifo_one_shot(self):
        # A quiet override then a saturated one: the first sampled
        # delay carries no busy interruptions, the second must (at
        # activity 1.0 every backoff slot is interrupted, and each
        # interruption adds a full contender_busy_s >> the slot time).
        model = ContentionModel(
            n_contenders=4,
            contender_activity=0.0,
            rng=np.random.default_rng(2),
        )
        model.push_activity(0.0)
        model.push_activity(1.0)
        quiet = model.sample_access_delay_s()
        busy = model.sample_access_delay_s()
        assert busy >= quiet + model.contender_busy_s
        # Queue drained: back to the static activity (0.0 -> minimal).
        drained = model.sample_access_delay_s()
        assert drained < model.contender_busy_s

    def test_push_activity_validation(self):
        model = ContentionModel(n_contenders=1)
        with pytest.raises(ValueError):
            model.push_activity(-0.1)
        with pytest.raises(ValueError):
            model.push_activity(1.5)
        with pytest.raises(ValueError):
            model.mean_access_delay_s(activity=1.5)

    def test_dcf_contention_window_doubles_and_caps(self):
        station = DcfStation(DcfParameters())
        windows = []
        for _ in range(12):
            windows.append(station.contention_window())
            station.on_failure()
        assert windows[:3] == [15, 31, 63]
        assert windows[-1] == station.params.cw_max
        station.on_success()
        assert station.contention_window() == 15


# ---------------------------------------------------------------------------
# Predictors and the causal scheduling loop.
# ---------------------------------------------------------------------------


class TestPredictors:
    def test_ewma_bootstrap_and_update(self):
        predictor = EwmaPredictor(alpha=0.3)
        assert predictor.predict() == 0.0  # optimistic prior
        predictor.observe(0.5)
        assert predictor.predict() == pytest.approx(0.5)
        predictor.observe(1.0)
        assert predictor.predict() == pytest.approx(0.3 * 1.0 + 0.7 * 0.5)

    def test_holt_tracks_ramps_ahead_of_ewma(self):
        ramp = np.linspace(0.0, 0.8, 9)
        ewma, holt = EwmaPredictor(), HoltPredictor()
        for busy in ramp:
            ewma.observe(busy)
            holt.observe(busy)
        # On a steady ramp the trend term pushes Holt's forecast ahead
        # of the lagging EWMA level.
        assert holt.predict() > ewma.predict()
        assert holt.predict() > ramp[-1] - 0.1

    def test_holt_forecast_stays_clamped(self):
        predictor = HoltPredictor()
        for busy in np.linspace(0.0, 1.0, 30):
            predictor.observe(busy)
            assert 0.0 <= predictor.predict() <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaPredictor(alpha=0.0)
        with pytest.raises(ValueError):
            HoltPredictor(alpha=1.5)
        with pytest.raises(ValueError):
            HoltPredictor(beta=-0.1)


class TestOpportunityScheduler:
    def test_rides_quiet_forecasts_skips_busy_ones(self):
        scheduler = OpportunityScheduler(ride_threshold=0.35)
        ride, predicted, forced = scheduler.decide()
        assert ride and not forced and predicted == 0.0
        scheduler.observe(0.9)  # saturate the forecast
        ride, predicted, forced = scheduler.decide()
        assert not ride and predicted > 0.35

    def test_skip_streak_guard_forces_a_ride(self):
        scheduler = OpportunityScheduler(
            predictor=EwmaPredictor(level=1.0),
            ride_threshold=0.35,
            max_skip_streak=5,
        )
        decisions = []
        for _ in range(12):
            decisions.append(scheduler.decide())
            scheduler.observe(1.0)  # forecast stays pinned at 1.0
        rides = [r for r, _, _ in decisions]
        forced = [f for _, _, f in decisions]
        # Five skips, then the guard fires; the pattern repeats.
        assert rides == [False] * 5 + [True] + [False] * 5 + [True]
        assert forced == [False] * 5 + [True] + [False] * 5 + [True]

    def test_validation(self):
        with pytest.raises(ValueError):
            OpportunityScheduler(ride_threshold=1.5)
        with pytest.raises(ValueError):
            OpportunityScheduler(max_skip_streak=0)


class TestScheduledSession:
    @staticmethod
    def _scheduled(**kwargs):
        system, _ = los_scenario(2.0, seed=5)
        session = MeasurementSession(
            system, rng=np.random.default_rng(6), session_fast_path=True
        )
        system.load_tag_bits([1, 0] * 400)
        defaults = dict(
            session=session,
            traffic=OnOffTraffic(
                rate_fps=600.0,
                mean_on_s=0.30,
                mean_off_s=0.45,
                rng=np.random.default_rng(11),
            ),
            scheduler=OpportunityScheduler(predictor=HoltPredictor()),
            interference_rng=np.random.default_rng(12),
        )
        defaults.update(kwargs)
        return ScheduledSession(**defaults)

    def test_decisions_are_causal(self):
        # The forecast recorded for window i must be computable from
        # busy fractions 0..i-1 alone — never from window i's own.
        scheduled = self._scheduled()
        plan = scheduled.plan_windows(60)
        shadow = HoltPredictor()
        for decision in plan:
            assert decision.predicted == pytest.approx(shadow.predict())
            shadow.observe(decision.busy)

    def test_plan_then_execute_matches_run_queries(self):
        one = self._scheduled()
        two = self._scheduled()
        stats_one = one.run_queries(50)
        plan = two.plan_windows(50)
        stats_two = two.execute_plan(plan)
        assert stats_one == stats_two
        assert one.decisions == two.decisions
        assert one.rides == two.rides == len(one.results)
        assert one.skips == 50 - one.rides

    def test_elapsed_and_energy_account_every_window(self):
        energy = EnergySimulator()
        scheduled = self._scheduled(energy=energy)
        scheduled.run_queries(50)
        # A ridden window occupies max(cycle_s, window_s); with no
        # contention a query cycle fits inside the 20 ms window, so
        # elapsed time is exactly the window grid and the energy
        # ledger splits it into active cycles plus sleep.
        assert all(r.cycle_s <= scheduled.window_s for r in scheduled.results)
        assert scheduled._elapsed_s == pytest.approx(50 * scheduled.window_s)
        active = sum(r.cycle_s for r in scheduled.results)
        assert energy.active_s == pytest.approx(active)
        assert energy.slept_s == pytest.approx(
            scheduled._elapsed_s - active
        )
        assert energy.consumed_j > 0.0

    def test_interference_only_zeroes_bits(self):
        # Collisions destroy subframes: a received bit may flip 1 -> 0
        # under interference but never 0 -> 1.
        quiet = self._scheduled(
            traffic=OnOffTraffic(
                rate_fps=600.0,
                mean_on_s=0.30,
                mean_off_s=0.45,
                rng=np.random.default_rng(11),
            ),
            collision_scale=0.0,
        )
        noisy = self._scheduled(collision_scale=1.0)
        quiet.run_queries(40)
        noisy.run_queries(40)
        assert quiet.decisions == noisy.decisions  # policy unaffected
        for clean, hit in zip(quiet.results, noisy.results):
            for a, b in zip(clean.received_bits, hit.received_bits):
                assert b in (a, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            self._scheduled(window_s=0.0)
        with pytest.raises(ValueError):
            self._scheduled(collision_scale=1.5)
        scheduled = self._scheduled()
        with pytest.raises(ValueError):
            scheduled.plan_windows(0)
        with pytest.raises(ValueError):
            scheduled.run_for(0.0)


# ---------------------------------------------------------------------------
# Controller boundaries: both AIMD ladders at their edges.
# ---------------------------------------------------------------------------


class TestQueryRateControllerBoundaries:
    def test_floor_never_goes_below_zero(self):
        controller = QueryRateController(mcs_index=0)
        for _ in range(5):
            assert controller.observe_benign_loss(500, 1000) == 0
        assert controller.downgrades == 0  # no phantom step-downs at 0

    def test_ceiling_never_probes_past_max_index(self):
        controller = QueryRateController(
            mcs_index=7, max_index=7, probe_after_clean=1
        )
        for _ in range(5):
            assert controller.observe_benign_loss(0, 1000) == 7

    def test_oscillating_feedback_never_climbs(self):
        # Hysteresis: every lossy round resets the clean streak, so an
        # alternating channel walks down and parks at the floor.
        controller = QueryRateController(mcs_index=5, probe_after_clean=2)
        trace = []
        for cycle in range(20):
            lost = 200 if cycle % 2 == 0 else 0
            trace.append(controller.observe_benign_loss(lost, 1000))
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert trace[-1] == 0

    def test_probe_up_after_sustained_clean(self):
        controller = QueryRateController(mcs_index=3, probe_after_clean=3)
        for _ in range(2):
            assert controller.observe_benign_loss(0, 1000) == 3
        assert controller.observe_benign_loss(0, 1000) == 4

    def test_settle_finds_the_highest_sustainable_rate(self):
        controller = QueryRateController(mcs_index=7)
        index = controller.settle(
            lambda i: 0.0 if i <= 3 else 0.2
        )
        assert index == 3

    def test_zero_total_is_a_no_op(self):
        controller = QueryRateController(mcs_index=4)
        assert controller.observe_benign_loss(0, 0) == 4
        assert controller.observations == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_index"):
            QueryRateController(max_index=32)
        with pytest.raises(ValueError, match="mcs_index"):
            QueryRateController(mcs_index=9, max_index=7)
        with pytest.raises(ValueError):
            QueryRateController(downgrade_threshold=0.0)
        with pytest.raises(ValueError):
            QueryRateController(probe_after_clean=0)
        with pytest.raises(ValueError, match="invalid counts"):
            QueryRateController().observe_benign_loss(6, 5)
        with pytest.raises(ValueError, match="invalid counts"):
            QueryRateController().observe_benign_loss(-1, 5)

    def test_adaptive_session_rejects_out_of_range_system_mcs(self):
        system, _ = los_scenario(2.0, seed=5)  # MCS index 7
        with pytest.raises(ValueError, match="outside controller range"):
            AdaptiveSession(
                system,
                controller=QueryRateController(mcs_index=0, max_index=3),
            )


class TestRedundancyControllerBoundaries:
    def test_ceiling_holds_at_top_rung(self):
        controller = RedundancyController(levels=(2, 4), index=1)
        for _ in range(3):
            assert controller.observe_corruption(10, 10) == 1
        assert controller.level == 4
        assert controller.increases == 0

    def test_floor_holds_at_bottom_rung(self):
        controller = RedundancyController(
            levels=(2, 4), decrease_after_clean=1
        )
        for _ in range(3):
            assert controller.observe_corruption(0, 10) == 0
        assert controller.level == 2

    def test_oscillating_corruption_parks_at_protective_rung(self):
        # A lossy round steps up immediately; a single clean round
        # (below decrease_after_clean=2) never steps back down, so an
        # alternating channel climbs to the protective rung and parks
        # there instead of flapping.
        controller = RedundancyController(
            levels=(2, 4, 8), increase_threshold=0.25, decrease_after_clean=2
        )
        assert controller.observe_corruption(5, 10) == 1
        trace = []
        for cycle in range(10):
            corrupted = 5 if cycle % 2 == 0 else 0
            trace.append(controller.observe_corruption(corrupted, 10))
        assert trace == [2] * 10
        assert controller.level == 8

    def test_sustained_clean_eases_back_down(self):
        controller = RedundancyController(
            levels=(2, 4, 8), index=2, decrease_after_clean=2
        )
        rungs = [controller.observe_corruption(0, 10) for _ in range(4)]
        assert rungs == [2, 1, 1, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RedundancyController(levels=())
        with pytest.raises(ValueError, match="strictly increasing"):
            RedundancyController(levels=(4, 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            RedundancyController(levels=(2, 2))
        with pytest.raises(ValueError, match="index"):
            RedundancyController(levels=(2, 4), index=2)
        with pytest.raises(ValueError):
            RedundancyController(increase_threshold=1.0)
        with pytest.raises(ValueError):
            RedundancyController(decrease_after_clean=0)
        with pytest.raises(ValueError, match="invalid counts"):
            RedundancyController().observe_corruption(3, 2)
        assert RedundancyController().observe_corruption(0, 0) == 0


# ---------------------------------------------------------------------------
# The closed loop: AdaptiveFecLink report consistency.
# ---------------------------------------------------------------------------


class TestAdaptiveFecLink:
    def test_round_reports_are_internally_consistent(self):
        link = AdaptiveLinkSpec()(
            UnitContext(index=0, parameters={}, root_seed=7)
        )
        report = link.run(3, 60)
        assert len(report.rounds) == 3
        for round_ in report.rounds:
            assert round_.rides <= round_.windows == 60
            assert round_.nsym in link.controller.levels
            assert round_.message_bits == round_.blocks * 8 * link.block_k
            assert 0 <= round_.delivered_bits <= round_.message_bits
            assert 0 <= round_.failed_blocks <= round_.blocks
        assert report.message_bits == sum(
            r.message_bits for r in report.rounds
        )
        assert report.delivered_bits == sum(
            r.delivered_bits for r in report.rounds
        )
        assert report.goodput_bps == pytest.approx(
            report.delivered_bits / report.elapsed_s
        )
        assert 0.0 <= report.block_error_rate <= 1.0
        assert report.energy_j > 0.0
        assert report.energy_per_bit_uj is None or (
            report.energy_per_bit_uj > 0.0
        )

    def test_static_baseline_rides_everything_on_one_rung(self):
        stats = adaptive_link_stats(
            UnitContext(index=0, parameters={}, root_seed=7),
            spec=AdaptiveLinkSpec(adaptive=False),
            rounds=2,
            windows_per_round=40,
        )
        assert stats["adaptive"] is False
        assert stats["rides"] == stats["windows"] == 80
        assert set(stats["rungs"]) == {AdaptiveLinkSpec().static_nsym}
        assert set(stats["decision_bits"]) == {"1"}

    def test_link_stats_are_deterministic_per_seed(self):
        def run():
            return adaptive_link_stats(
                UnitContext(index=1, parameters={}, root_seed=9),
                rounds=2,
                windows_per_round=40,
            )

        first = run()
        assert first == run()
        assert first["windows"] == 80
        assert len(first["decision_bits"]) == 80
        assert first["rides"] == first["decision_bits"].count("1")

    def test_block_k_validation(self):
        link = AdaptiveLinkSpec()(
            UnitContext(index=0, parameters={}, root_seed=7)
        )
        with pytest.raises(ValueError):
            AdaptiveFecLink(scheduled=link.scheduled, block_k=0)
        with pytest.raises(ValueError):
            link.run(0, 10)


# ---------------------------------------------------------------------------
# Quality pin: adaptive vs static-paper FEC under bursty traffic.
# ---------------------------------------------------------------------------


class TestAdaptiveQualityPin:
    def test_adaptive_beats_static_paper_scheme_exactly(self):
        # The ratios are exact for this seed, so any change to the
        # traffic, scheduling or coding physics moves them.
        sweep = SweepSpec(axes={"unit": [0, 1, 2]}, seed=0)
        legs = {}
        for adaptive in (False, True):
            measure = functools.partial(
                adaptive_link_stats,
                spec=AdaptiveLinkSpec(adaptive=adaptive),
                rounds=6,
                windows_per_round=100,
            )
            legs[adaptive] = list(
                run_sweep(measure, sweep, executor="serial").values
            )
        static, adaptive = legs[False], legs[True]

        def mean(values, key):
            return sum(v[key] for v in values) / len(values)

        assert (
            mean(adaptive, "goodput_bps") / mean(static, "goodput_bps")
            == 1.4987268401138139
        )
        assert (
            mean(static, "energy_per_bit_uj")
            / mean(adaptive, "energy_per_bit_uj")
            == 3.3686983661298666
        )
        assert [v["delivered_bits"] for v in static] == [
            12800, 10304, 10752,
        ]
        assert [v["delivered_bits"] for v in adaptive] == [
            18560, 15616, 16256,
        ]
        assert all(
            a["goodput_bps"] > s["goodput_bps"]
            for a, s in zip(adaptive, static)
        )
