"""Monte-Carlo cross-validation of the analytic model (scaled regime)."""

import random

import pytest

from repro.analysis.saroiu_wolman import failure_probability
from repro.core.mint import MintTracker
from repro.scenario import AttackSpec, Scenario, Session, TrackerSpec
from repro.sim.montecarlo import scaled_timing
from repro.sim.trace import Interval, Trace
from tests.single_bank import bank_simulator


MAX_ACT = 8
REFI_PER_REFW = 64


def scaled_pattern2(trh, rows=MAX_ACT, seed=42):
    """MINT (no transitive slot) vs scaled pattern-2: `rows` rows, one
    activation each per interval, over one 64-tREFI window at M=8.

    Rows sit in the auto-refresh slice served at the *last* REF of the
    window (rows 940+ of 1024 with 64 slices), so the rolling refresh
    cannot interrupt a failure run mid-window and the analytic model
    applies without the geometric correction.
    """
    return Scenario(
        tracker=TrackerSpec.of("mint", transitive=False),
        attack=AttackSpec.of("pattern2", k=rows, spacing=10),
        trh=trh,
        intervals=REFI_PER_REFW,
        max_act=MAX_ACT,
        base_row=940,
        num_rows=1024,
        refi_per_refw=REFI_PER_REFW,
        scaled_timing=True,
        seed=seed,
    )


class TestScaledTiming:
    def test_max_act(self):
        assert scaled_timing(MAX_ACT, REFI_PER_REFW).max_act == MAX_ACT

    def test_refw(self):
        timing = scaled_timing(MAX_ACT, REFI_PER_REFW)
        assert timing.refi_per_refw == REFI_PER_REFW


class TestCrossValidation:
    @pytest.mark.slow
    def test_mint_failure_rate_matches_analytic_model(self):
        """The headline validation: empirical failure probability of the
        real MINT implementation matches the Saroiu-Wolman prediction in
        a scaled-down regime (M=8, 64 tREFI per window, TRH=40).

        Analytic: rows * SW(n=64, p=1/8, T=40), union-bounded over the
        8 attacked rows; auto-refresh interference is avoided by row
        placement (see the trace factory docstring).
        """
        trh = 40
        rows = MAX_ACT
        result = Session(scaled_pattern2(trh, rows=rows)).run_many(4000)
        per_row = failure_probability(REFI_PER_REFW, 1.0 / MAX_ACT, trh)
        predicted = rows * per_row  # union bound over aggressor rows
        lo, hi = result.confidence_interval(z=3.0)
        assert lo <= predicted <= hi, (
            f"predicted {predicted:.4f} outside CI ({lo:.4f}, {hi:.4f}); "
            f"measured {result.failure_probability:.4f}"
        )

    def test_unprotected_always_fails(self):
        scenario = Scenario(
            tracker="none",
            attack="single-sided",
            trh=50,
            intervals=32,
            max_act=MAX_ACT,
            base_row=100,
            refi_per_refw=REFI_PER_REFW,
            scaled_timing=True,
            seed=1,
        )
        result = Session(scenario).run_many(20)
        assert result.failure_probability == 1.0

    def test_guaranteed_protection_bounds_direct_victims(self):
        """Classic single-sided vs MINT: the direct victims never see
        more than ~2M unmitigated hammers (Section V-C). The transitive
        channel is asserted separately (it needs the transitive slot)."""
        timing = scaled_timing(MAX_ACT, REFI_PER_REFW)
        for seed in range(10):
            simulator = bank_simulator(
                MintTracker(max_act=MAX_ACT, transitive=False,
                            rng=random.Random(seed)),
                timing=timing, trh=1e9, num_rows=1024,
                refi_per_refw=REFI_PER_REFW,
            )
            simulator.run(
                Trace("classic", [Interval.of([500] * MAX_ACT)] * REFI_PER_REFW)
            )
            model = simulator.device.banks[0]
            for victim in (499, 501):
                # Selection is guaranteed each interval; the victim can
                # carry at most one interval of hammers plus the current
                # interval before its refresh lands.
                assert model.peak_disturbance(victim) <= 2 * MAX_ACT

    def test_confidence_interval_sane(self):
        from repro.sim.montecarlo import MonteCarloResult

        result = MonteCarloResult(windows=1000, failures=100, total_mitigations=0)
        lo, hi = result.confidence_interval()
        assert lo < 0.1 < hi
        assert 0.0 <= lo and hi <= 1.0


class TestWilsonInterval:
    """The CI must stay informative at the boundaries — the Wald form
    previously returned the degenerate ``(0.0, 0.0)`` at zero observed
    failures, a claim of certainty exactly in the rare-event regime
    this module exists to probe."""

    def _result(self, windows, failures):
        from repro.sim.montecarlo import MonteCarloResult

        return MonteCarloResult(
            windows=windows, failures=failures, total_mitigations=0
        )

    def test_zero_failures_upper_bound_is_positive(self):
        result = self._result(windows=1000, failures=0)
        lo, hi = result.confidence_interval()
        assert lo == 0.0
        assert hi > 0.0
        # Wilson at p=0: upper bound is z^2 / (n + z^2).
        z = 1.96
        assert hi == pytest.approx(z * z / (1000 + z * z))

    def test_all_failures_lower_bound_below_one(self):
        result = self._result(windows=1000, failures=1000)
        lo, hi = result.confidence_interval()
        assert hi == 1.0
        assert lo < 1.0
        z = 1.96
        assert lo == pytest.approx(1000 / (1000 + z * z))

    def test_zero_windows_is_vacuous(self):
        assert self._result(0, 0).confidence_interval() == (0.0, 1.0)

    def test_interval_brackets_point_estimate(self):
        result = self._result(windows=500, failures=37)
        lo, hi = result.confidence_interval()
        assert 0.0 <= lo < result.failure_probability < hi <= 1.0

    def test_wider_z_widens_interval(self):
        result = self._result(windows=500, failures=37)
        lo95, hi95 = result.confidence_interval(z=1.96)
        lo99, hi99 = result.confidence_interval(z=3.0)
        assert lo99 < lo95 and hi95 < hi99

    def test_payload_carries_wilson_bounds(self):
        result = self._result(windows=1000, failures=0)
        payload = result.to_payload()
        lo, hi = result.confidence_interval()
        assert payload["ci95_low"] == lo
        assert payload["ci95_high"] == hi
        assert payload["ci95_high"] > 0.0


class TestParallelFanOut:
    def _estimate(self, n_workers):
        return Session(scaled_pattern2(trh=30)).run_many(
            80, n_workers=n_workers
        )

    def test_worker_count_does_not_change_counts(self):
        """Per-window seeds are a stable hash of (task seed, index), so
        the fan-out is bit-identical to the serial run."""
        serial = self._estimate(n_workers=1)
        pooled = self._estimate(n_workers=4)
        assert serial == pooled

    def test_windows_are_not_all_identical(self):
        """Distinct windows get distinct random streams: MINT's random
        selections must differ across windows (equal mitigation totals
        per window would mean a constant stream)."""
        single = self._estimate(n_workers=1)
        assert 0 < single.windows == 80
        # With TRH=30 in this regime some windows fail and some survive,
        # which can only happen if the per-window RNG varies.
        assert 0 < single.failures < single.windows
