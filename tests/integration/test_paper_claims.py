"""End-to-end checks of the paper's headline claims.

Each test names the claim and the paper section it comes from. These
are the assertions a reviewer would check first.
"""

import random

import pytest

from repro.analysis import (
    mint_mintrh_d,
    mint_vs_prct_gap,
    mint_dmq_vs_prct_gap,
    table4,
    table5,
    worst_case_ada_mintrh,
)
from repro.attacks import (
    AttackParams,
    double_sided,
    expected_unmitigated_acts,
    half_double,
    postponement_decoy,
    single_sided,
)
from repro.core.dmq import DelayedMitigationQueue
from repro.core.mint import MintTracker
from tests.single_bank import bank_simulator, run_bank


class TestAbstractClaims:
    def test_claim_mintrh_d_1400(self):
        """Abstract: 'MINT has a MinTRH-D of 1400' (without DMQ)."""
        assert mint_mintrh_d() == pytest.approx(1400, rel=0.01)

    def test_claim_mintrh_d_1482_with_dmq(self):
        """Abstract: 'MINT has a MinTRH of 1482' (with DMQ, adaptive)."""
        _mp, value = worst_case_ada_mintrh(double_sided=True)
        assert value == pytest.approx(1482, rel=0.02)

    def test_claim_356_with_rfm16(self):
        """Abstract: 'can be lowered to 356 with RFM'."""
        rows = table5()
        assert rows[-1].mintrh_d == pytest.approx(356, rel=0.05)

    def test_claim_within_2x_of_idealized(self):
        """Abstract: 'within 2x of the MinTRH of an idealized design'."""
        assert mint_vs_prct_gap() < 2.5
        assert mint_dmq_vs_prct_gap() < 2.0

    def test_claim_better_than_677_entry_mithril(self):
        """Abstract: 'lower than a prior counter-based design with 677
        entries per bank' (under refresh postponement)."""
        rows = {row.name: row for row in table4()}
        assert rows["MINT"].mintrh_d_with_dmq <= rows["Mithril"].mintrh_d_with_dmq

    def test_claim_storage_four_bytes(self):
        """Abstract: 'The storage overhead of MINT is four bytes'."""
        tracker = MintTracker(rng=random.Random(0))
        assert tracker.storage_bits == 32


class TestGuaranteedProtection:
    """Section V-C: classic attacks are bounded by construction.

    Without the transitive slot, selection is guaranteed every interval
    and the victim's unmitigated run is deterministically <= 2M. With
    the transitive slot, each SAN=0 draw (probability 1/74) skips one
    selection, so the run has a geometric tail: runs of j extra
    intervals occur with probability 74^-j — still bounded far below
    any realistic threshold.
    """

    @pytest.mark.parametrize("seed", range(5))
    def test_single_sided_deterministic_bound_without_slot(self, seed):
        params = AttackParams(max_act=73, intervals=400)
        tracker = MintTracker(transitive=False, rng=random.Random(seed))
        simulator = bank_simulator(tracker, trh=1e9)
        simulator.run(single_sided(params))
        model = simulator.device.banks[0]
        base = params.base_row
        for victim in (base - 1, base + 1):
            assert model.peak_disturbance(victim) <= 2 * 73

    @pytest.mark.parametrize("seed", range(5))
    def test_single_sided_geometric_tail_with_slot(self, seed):
        params = AttackParams(max_act=73, intervals=400)
        tracker = MintTracker(transitive=True, rng=random.Random(seed))
        simulator = bank_simulator(tracker, trh=1e9)
        simulator.run(single_sided(params))
        model = simulator.device.banks[0]
        base = params.base_row
        for victim in (base - 1, base + 1):
            # 2M plus a couple of 74^-j tail intervals at these seeds.
            assert model.peak_disturbance(victim) <= 4 * 73 + 4

    @pytest.mark.parametrize("seed", range(5))
    def test_double_sided_bounded(self, seed):
        params = AttackParams(max_act=73, intervals=400)
        tracker = MintTracker(rng=random.Random(seed))
        simulator = bank_simulator(tracker, trh=1e9)
        simulator.run(double_sided(params, victim=params.base_row))
        model = simulator.device.banks[0]
        assert model.peak_disturbance(params.base_row) <= 4 * 73 + 4


class TestTransitiveAttackClaims:
    """Section V-E: Half-Double and the transitive-mitigation fix."""

    def test_half_double_beats_mint_without_transitive_slot(self):
        params = AttackParams(max_act=73, intervals=1000)
        tracker = MintTracker(transitive=False, rng=random.Random(3))
        simulator = bank_simulator(tracker, trh=1e9)
        simulator.run(half_double(params))
        model = simulator.device.banks[0]
        distance2 = max(
            model.peak_disturbance(params.base_row - 2),
            model.peak_disturbance(params.base_row + 2),
        )
        # One silent activation per REF: ~8192 per tREFW at full scale.
        assert distance2 > 800

    def test_transitive_slot_caps_half_double(self):
        params = AttackParams(max_act=73, intervals=1000)
        tracker = MintTracker(transitive=True, rng=random.Random(3))
        simulator = bank_simulator(tracker, trh=1e9)
        simulator.run(half_double(params))
        model = simulator.device.banks[0]
        distance2 = max(
            model.peak_disturbance(params.base_row - 2),
            model.peak_disturbance(params.base_row + 2),
        )
        # Transitive mitigations fire ~1/74 of REFs; the victim's run
        # stays geometric with mean 74, far under the direct threshold.
        assert distance2 < 800


class TestPostponementClaims:
    """Section VI: the 478K blow-up and the DMQ fix."""

    def test_decoy_attack_is_deterministic_without_dmq(self):
        params = AttackParams(max_act=73, intervals=500)
        target = 31_000
        tracker = MintTracker(rng=random.Random(4))
        result = run_bank(
            tracker,
            postponement_decoy(target, params),
            trh=1e9,
            allow_postponement=True,
        )
        assert result.max_unmitigated[target] == expected_unmitigated_acts(params)
        assert result.max_unmitigated[target] == 29_200  # 4/5 of 500*73

    def test_dmq_caps_decoy_attack_at_292(self):
        """Section VI-D: at most 73x4 = 292 extra activations."""
        params = AttackParams(max_act=73, intervals=500)
        target = 31_000
        tracker = DelayedMitigationQueue(
            MintTracker(rng=random.Random(5)), max_act=73, depth=4
        )
        result = run_bank(
            tracker,
            postponement_decoy(target, params),
            trh=1e9,
            allow_postponement=True,
        )
        assert result.max_unmitigated[target] <= 365 + 292


class TestSpatialCorrelationClaim:
    """Section V-F: a sandwiched victim gets both neighbours' chances."""

    def test_double_sided_victim_refreshed_by_either_selection(self):
        params = AttackParams(max_act=73, intervals=3000)
        tracker = MintTracker(rng=random.Random(6))
        simulator = bank_simulator(tracker, trh=1e9)
        simulator.run(double_sided(params, victim=params.base_row))
        model = simulator.device.banks[0]
        victim_peak = model.peak_disturbance(params.base_row)
        # Each neighbour is selected with probability ~36/74 per
        # interval (36 copies each); the victim's unmitigated run stays
        # a small multiple of one interval's hammering.
        assert victim_peak <= 4 * 73 + 4
