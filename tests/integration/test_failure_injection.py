"""Failure injection: what breaks MINT when its assumptions break.

The threat model (Section II-B) assumes the attacker cannot observe the
TRNG. These tests inject the failures the design implicitly depends on
not happening — a predictable RNG, a stuck RNG, an undersized DMQ, a
tracker that names rows it never saw — and verify both that the attack
succeeds (the dependence is real) and that the simulator surfaces it.
"""

import random

import pytest

from repro.attacks import AttackParams, postponement_decoy_multi
from repro.core.dmq import DelayedMitigationQueue
from repro.core.mint import MintTracker
from repro.sim.trace import Interval, Trace
from repro.trackers.base import MitigationRequest, Tracker
from tests.single_bank import bank_simulator, run_bank


class _PredictableRng:
    """An RNG the attacker fully predicts (always selects slot 1)."""

    def randint(self, lo, hi):
        return max(lo, 1)

    def random(self):
        return 0.5


class _StuckZeroRng:
    """A TRNG stuck at the transitive slot: MINT never selects."""

    def randint(self, lo, hi):
        return lo  # 0 with the transitive slot enabled

    def random(self):
        return 0.0


class TestRngFailures:
    def test_predictable_rng_breaks_mint(self):
        """If SAN is always 1, the attacker sacrifices one decoy ACT per
        interval and hammers freely with the other 72. Rows are placed
        high in the address space so the rolling auto-refresh does not
        reach them during the 100-interval run."""
        tracker = MintTracker(transitive=False, rng=_PredictableRng())
        decoy, target = 90_000, 50_000
        intervals = [
            Interval.of([decoy] + [target] * 72) for _ in range(100)
        ]
        result = run_bank(
            tracker, Trace("rng-oracle", intervals), trh=4800
        )
        assert result.failed
        # Every mitigation was wasted on the decoy.
        assert result.max_unmitigated[target] == 72 * 100

    def test_stuck_trng_disables_selection(self):
        tracker = MintTracker(transitive=True, rng=_StuckZeroRng())
        trace = Trace(
            "stuck", [Interval.of([1000] * 73) for _ in range(60)]
        )
        result = run_bank(tracker, trace, trh=4000)
        assert result.failed
        assert result.mitigations == 0

    def test_healthy_rng_survives_same_attacks(self):
        tracker = MintTracker(transitive=False, rng=random.Random(1))
        decoy, target = 5000, 1000
        intervals = [
            Interval.of([decoy] + [target] * 72) for _ in range(100)
        ]
        result = run_bank(
            tracker, Trace("same-pattern", intervals), trh=4800
        )
        assert not result.failed


class TestStructuralFailures:
    def test_undersized_dmq_leaks_targets(self):
        """A depth-2 DMQ against the 4-target decoy attack: dropped
        targets accumulate unboundedly."""
        params = AttackParams(max_act=73, intervals=400)
        targets = [70_000 + 10 * i for i in range(4)]
        tracker = DelayedMitigationQueue(
            MintTracker(transitive=False, rng=random.Random(2)),
            max_act=73,
            depth=2,
        )
        result = run_bank(
            tracker,
            postponement_decoy_multi(targets, params),
            trh=1e9,
            allow_postponement=True,
        )
        peak = max(result.max_unmitigated.get(t, 0) for t in targets)
        assert tracker.overflow_drops > 0
        assert peak > 5_000

    def test_mismatched_dmq_interval_is_blind(self):
        """A DMQ sized for the wrong M (e.g. 146) never pseudo-mitigates
        at the real boundary and the decoy attack returns."""
        from repro.attacks import postponement_decoy

        params = AttackParams(max_act=73, intervals=400)
        tracker = DelayedMitigationQueue(
            MintTracker(rng=random.Random(3)), max_act=365, depth=4
        )
        result = run_bank(
            tracker,
            postponement_decoy(70_000, params),
            trh=1e9,
            allow_postponement=True,
        )
        # With max_act=365 no pseudo-mitigation fires inside the
        # super-window: the target's exposure collapses back toward the
        # unprotected case.
        assert result.pseudo_mitigations == 0

    def test_lying_tracker_is_a_refresh_rate_hammer(self):
        """A malicious/buggy tracker naming an arbitrary row performs
        victim refreshes around it — and those refreshes double-side
        hammer the named row itself at 2 disturbances per REF. The
        exposure is real but rate-limited to the mitigation rate, so it
        only threatens devices whose TRH is below 2 x 8192 per tREFW.
        (This is the same physics as the transitive channel the paper
        bounds in Section V-E.)"""

        class LyingTracker(Tracker):
            name = "liar"

            def on_activate(self, row):
                pass

            def on_refresh(self):
                return [MitigationRequest(7777)]

        # At TRH 500, 400 REFs x 2 disturbances crosses the threshold.
        simulator = bank_simulator(LyingTracker(), trh=500)
        trace = Trace("idle", [Interval.of([]) for _ in range(400)])
        result = simulator.run(trace)
        model = simulator.device.banks[0]
        assert result.failed
        assert result.flips[0].row == 7777
        # Distance-2 rows absorb one disturbance per refresh.
        assert model.peak_disturbance(7775) == pytest.approx(400, abs=1)

        # At a realistic TRH the same misbehaviour is harmless within
        # the refresh window (2 per REF cannot reach 4800 in 8192 REFs
        # without also beating auto-refresh).
        simulator = bank_simulator(LyingTracker(), trh=4800)
        result = simulator.run(
            Trace("idle", [Interval.of([]) for _ in range(2000)])
        )
        assert not result.failed
