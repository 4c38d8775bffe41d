"""Tests for the rank-level simulator and system MTTF helpers."""

import random

import pytest

from repro.attacks import AttackParams, double_sided
from repro.core.mint import MintTracker
from repro.sim.engine import RankSimulator
from repro.sim.results import system_mttf_years
from repro.trackers.base import NullTracker


def mint_factory(bank):
    return MintTracker(rng=random.Random(1000 + bank))


class TestDeprecatedImportPath:
    def test_legacy_module_warns_but_still_resolves(self):
        import repro.sim.rank as legacy

        with pytest.warns(DeprecationWarning, match="RankSimulator"):
            assert legacy.RankSimulator is RankSimulator
        # The MTTF helper is a deliberate permanent re-export: no warning.
        assert legacy.system_mttf_years is system_mttf_years


class TestRankSimulator:
    def test_per_bank_independence(self):
        params = AttackParams(max_act=73, intervals=50)
        simulator = RankSimulator(
            lambda bank: NullTracker() if bank == 0 else mint_factory(bank),
            num_banks=2,
            trh=300,
        )
        traces = [
            double_sided(params, victim=1000),
            double_sided(params, victim=1000),
        ]
        result = simulator.run(traces)
        assert result.failed_banks == [0]
        assert result.any_flip

    def test_all_protected(self):
        params = AttackParams(max_act=73, intervals=100)
        simulator = RankSimulator(mint_factory, num_banks=4, trh=1000)
        traces = [double_sided(params, victim=1000)] * 4
        result = simulator.run(traces)
        assert not result.any_flip
        assert result.total_mitigations > 300

    def test_tfaw_limit_enforced(self):
        simulator = RankSimulator(
            mint_factory, num_banks=32, concurrent_banks=4, trh=1000
        )
        params = AttackParams(max_act=73, intervals=5)
        traces = [double_sided(params, victim=1000)] * 5
        with pytest.raises(ValueError):
            simulator.run(traces)

    def test_tracker_instances_not_shared(self):
        simulator = RankSimulator(mint_factory, num_banks=3, trh=1000)
        trackers = simulator.trackers
        assert len(set(map(id, trackers))) == 3

    def test_rejects_zero_banks(self):
        with pytest.raises(ValueError):
            RankSimulator(mint_factory, num_banks=0)


class TestSystemMttf:
    def test_paper_example(self):
        """Table VII: 10,000-year banks with 22 concurrent -> ~450-year
        system."""
        assert system_mttf_years(10_000.0, banks=22) == pytest.approx(454.5, rel=0.01)

    def test_scaling(self):
        assert system_mttf_years(1000.0, banks=10) == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            system_mttf_years(0.0)
        with pytest.raises(ValueError):
            system_mttf_years(100.0, banks=0)
