"""Unit tests for the tag FSM, power budgets and RF harvesting."""

import numpy as np
import pytest

from repro.phy.channel import STATE_CODES, TagState
from repro.tag.harvester import RfHarvester
from repro.tag.power import (
    PowerBudget,
    channel_shift_precision_budget,
    channel_shift_ring_budget,
    witag_budget,
)
from repro.tag.state_machine import (
    QueryObservation,
    TagPhase,
    TagStateMachine,
)


def make_query(rx_dbm=-25.0, n_subframes=10, n_trigger=2):
    return QueryObservation(
        n_subframes=n_subframes,
        n_trigger_subframes=n_trigger,
        subframe_s=20e-6,
        rx_power_dbm=rx_dbm,
    )


class TestQueryObservation:
    def test_payload_count(self):
        assert make_query().n_payload_subframes == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryObservation(0, 0, 20e-6, -25.0)
        with pytest.raises(ValueError):
            QueryObservation(4, 4, 20e-6, -25.0)
        with pytest.raises(ValueError):
            QueryObservation(4, 0, 0.0, -25.0)


class TestTagStateMachine:
    def test_transmits_queued_bits(self):
        fsm = TagStateMachine(rng=np.random.default_rng(0))
        fsm.load_bits([1, 0, 1, 0])
        tx = fsm.process_query(make_query())
        assert tx.detected
        assert tx.bits_loaded == (1, 0, 1, 0)
        # Trigger subframes idle; then bit states; trailing idle.
        states = [STATE_CODES[c] for c in tx.codes]
        assert tx.codes.dtype == np.int8
        assert states[0] is TagState.REFLECT_0
        assert states[2] is TagState.REFLECT_0  # bit 1
        assert states[3] is TagState.REFLECT_180  # bit 0

    def test_queue_consumed_fifo(self):
        fsm = TagStateMachine(rng=np.random.default_rng(0))
        fsm.load_bits([1, 1, 0])
        fsm.process_query(make_query())
        assert fsm.pending_bits == 0

    def test_partial_consumption(self):
        fsm = TagStateMachine(rng=np.random.default_rng(0))
        fsm.load_bits([1] * 20)
        tx = fsm.process_query(make_query())  # 8 payload slots
        assert len(tx.bits_loaded) == 8
        assert fsm.pending_bits == 12

    def test_missed_trigger_keeps_bits(self):
        fsm = TagStateMachine(rng=np.random.default_rng(0))
        fsm.load_bits([1, 0, 1])
        tx = fsm.process_query(make_query(rx_dbm=-80.0))
        assert not tx.detected
        assert tx.bits_loaded == ()
        assert fsm.pending_bits == 3
        # An undetected query leaves the tag idle throughout.
        assert len(tx.codes) == 10
        assert all(STATE_CODES[c] is TagState.REFLECT_0 for c in tx.codes)

    def test_unused_slots_idle(self):
        fsm = TagStateMachine(rng=np.random.default_rng(0))
        fsm.load_bits([0, 0])
        tx = fsm.process_query(make_query())
        assert all(
            STATE_CODES[c] is TagState.REFLECT_0 for c in tx.codes[4:]
        )

    def test_alignment_flags_per_bit(self):
        fsm = TagStateMachine(rng=np.random.default_rng(0))
        fsm.load_bits([1, 0, 1, 0, 1])
        tx = fsm.process_query(make_query())
        assert len(tx.toggles_aligned) == 5

    def test_bad_bits_rejected(self):
        fsm = TagStateMachine()
        with pytest.raises(ValueError):
            fsm.load_bits([2])

    def test_returns_to_idle(self):
        fsm = TagStateMachine(rng=np.random.default_rng(0))
        fsm.load_bits([1])
        fsm.process_query(make_query())
        assert fsm.phase is TagPhase.IDLE


class TestPowerBudgets:
    def test_witag_few_microwatts(self):
        """Paper Section 7: WiTAG's budget is a few microwatts."""
        budget = witag_budget()
        assert budget.total_uw < 10.0
        assert budget.battery_free_feasible

    def test_precision_budget_not_battery_free(self):
        """Paper Section 7: > 1 mW renders battery-free impractical."""
        budget = channel_shift_precision_budget()
        assert budget.total_mw > 1.0
        assert not budget.battery_free_feasible

    def test_witag_much_lower_than_channel_shift(self):
        assert (
            channel_shift_ring_budget().total_uw
            > 5 * witag_budget().total_uw
        )

    def test_components_itemised(self):
        budget = witag_budget()
        assert "oscillator" in budget.components
        assert budget.total_uw == pytest.approx(
            sum(budget.components.values())
        )

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            PowerBudget("bad", {"x": -1.0})


class TestHarvester:
    def test_nothing_below_sensitivity(self):
        assert RfHarvester().harvested_uw(-30.0) == 0.0

    def test_harvest_scales_with_input(self):
        h = RfHarvester()
        assert h.harvested_uw(0.0) > h.harvested_uw(-10.0) > 0.0

    def test_duty_cycle_scales(self):
        h = RfHarvester()
        assert h.harvested_uw(0.0, duty_cycle=0.5) == pytest.approx(
            h.harvested_uw(0.0) / 2
        )

    def test_witag_sustainable_at_modest_input(self):
        h = RfHarvester()
        level = h.min_input_dbm(witag_budget())
        assert level is not None
        assert level < -5.0  # sustained well below 0 dBm input

    def test_precision_needs_much_more(self):
        h = RfHarvester()
        witag_level = h.min_input_dbm(witag_budget())
        precision_level = h.min_input_dbm(channel_shift_precision_budget())
        assert precision_level is None or precision_level > witag_level + 10

    def test_validation(self):
        with pytest.raises(ValueError):
            RfHarvester(peak_efficiency=0.0)
        with pytest.raises(ValueError):
            RfHarvester(sensitivity_dbm=-5.0, half_efficiency_dbm=-10.0)
        with pytest.raises(ValueError):
            RfHarvester().harvested_uw(0.0, duty_cycle=2.0)
