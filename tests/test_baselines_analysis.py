"""Unit tests for baseline system models and analysis utilities."""

import numpy as np
import pytest

from repro.analysis.ber import BitErrorCounter
from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.reporting import Table, format_value
from repro.analysis.stats import Summary, db, geometric_mean
from repro.baselines import (
    NetworkProfile,
    Security,
    WifiStandard,
    all_systems,
    default_profiles,
    hitchhike_model,
    moxcatter_model,
    render_requirement_table,
    requirement_matrix,
    score_requirements,
    witag_model,
)


class TestSystemModels:
    def test_only_witag_satisfies_all(self):
        """The paper's central claim (Section 1)."""
        scores = requirement_matrix()
        winners = [s.system for s in scores if s.satisfies_all]
        assert winners == ["WiTAG"]

    def test_witag_on_encrypted_ac(self):
        profile = NetworkProfile(WifiStandard.DOT11AC, Security.WPA)
        assert witag_model().compatibility(profile).compatible

    def test_hitchhike_fails_on_wpa(self):
        profile = NetworkProfile(WifiStandard.DOT11B, Security.WPA)
        verdict = hitchhike_model().compatibility(profile)
        assert not verdict.compatible
        assert any("wpa" in r.lower() for r in verdict.reasons)

    def test_hitchhike_fails_on_11n(self):
        """Paper Section 2: HitchHike only works with 802.11b."""
        profile = NetworkProfile(WifiStandard.DOT11N)
        verdict = hitchhike_model().compatibility(profile)
        assert not verdict.compatible

    def test_moxcatter_needs_modified_ap(self):
        profile = NetworkProfile(WifiStandard.DOT11N)
        verdict = moxcatter_model().compatibility(profile)
        assert not verdict.compatible
        assert any("modified AP" in r for r in verdict.reasons)

    def test_channel_shifters_interfere(self):
        for model in all_systems():
            if model.shifts_channel and not model.performs_carrier_sense:
                assert model.interferes_with_others
        assert not witag_model().interferes_with_others

    def test_temperature_breaks_mhz_oscillators(self):
        """Paper Section 7 footnote 4."""
        profile = NetworkProfile(
            WifiStandard.DOT11N, temperature_stable=False
        )
        verdict = moxcatter_model().compatibility(profile)
        assert any("temperature" in r for r in verdict.reasons)

    def test_witag_power_lowest(self):
        budgets = {m.name: m.power_budget.total_uw for m in all_systems()}
        assert budgets["WiTAG"] == min(budgets.values())

    def test_requirement_score_structure(self):
        score = score_requirements(witag_model())
        assert score.wifi_compatible and score.satisfies_all

    def test_render_table(self):
        text = render_requirement_table()
        assert "WiTAG" in text
        assert "HitchHike" in text

    def test_default_profiles_cover_modern_networks(self):
        described = [p.describe() for p in default_profiles()]
        assert any("802.11ac" in d for d in described)
        assert any("wpa" in d for d in described)


class TestBitErrorCounter:
    def test_update(self):
        counter = BitErrorCounter()
        counter.update([1, 0, 1], [1, 1, 1])
        assert counter.bits == 3
        assert counter.errors == 1

    def test_wilson_interval_contains_p(self):
        counter = BitErrorCounter(bits=10_000, errors=100)
        low, high = counter.confidence_interval()
        assert low < 0.01 < high

    def test_no_bits(self):
        counter = BitErrorCounter()
        assert counter.ber == 0.0
        assert counter.confidence_interval() == (0.0, 1.0)

    def test_merge(self):
        merged = BitErrorCounter(100, 1).merge(BitErrorCounter(100, 3))
        assert merged.bits == 200
        assert merged.errors == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            BitErrorCounter().update([1], [1, 0])
        with pytest.raises(ValueError):
            BitErrorCounter().add(10, 11)


class TestEmpiricalCdf:
    def test_evaluate(self):
        cdf = EmpiricalCdf.from_samples([1.0, 2.0, 3.0, 4.0])
        assert cdf.evaluate(2.5) == pytest.approx(0.5)
        assert cdf.evaluate(0.0) == 0.0
        assert cdf.evaluate(10.0) == 1.0

    def test_percentile(self):
        cdf = EmpiricalCdf.from_samples(list(range(101)))
        assert cdf.percentile(90) == pytest.approx(90.0)
        assert cdf.median == pytest.approx(50.0)

    def test_dominance(self):
        better = EmpiricalCdf.from_samples([0.001, 0.002, 0.003])
        worse = EmpiricalCdf.from_samples([0.01, 0.02, 0.03])
        assert better.dominates(worse)
        assert not worse.dominates(better)

    def test_curve(self):
        cdf = EmpiricalCdf.from_samples([1.0, 2.0])
        curve = cdf.curve(points=5)
        assert curve[0][1] <= curve[-1][1]
        assert curve[-1][1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalCdf.from_samples([])
        cdf = EmpiricalCdf.from_samples([1.0])
        with pytest.raises(ValueError):
            cdf.percentile(101)
        with pytest.raises(ValueError):
            cdf.curve(points=1)


class TestStats:
    def test_summary(self):
        summary = Summary.of([1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.median == pytest.approx(2.0)
        assert summary.n == 3

    def test_summary_single(self):
        assert Summary.of([5.0]).std == 0.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)

    def test_db(self):
        assert db(100.0) == pytest.approx(20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Summary.of([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])
        with pytest.raises(ValueError):
            db(0.0)


class TestReporting:
    def test_table_renders_aligned(self):
        table = Table("t", ["a", "bb"])
        table.add_row([1, 2.5])
        table.add_row(["xx", True])
        text = table.render()
        assert "t" in text
        lines = text.splitlines()
        assert len(lines) == 5

    def test_row_arity_checked(self):
        with pytest.raises(ValueError):
            Table("t", ["a"]).add_row([1, 2])

    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(0.0) == "0"
        assert format_value(1234567.0) == "1.23e+06"
        assert format_value(0.25) == "0.250"
        assert format_value("s") == "s"
