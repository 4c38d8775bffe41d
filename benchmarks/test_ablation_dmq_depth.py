"""Ablation: DMQ depth (1-8 entries).

DDR5 postpones up to 4 refreshes, so depth 4 is exactly sufficient.
The single-target decoy attack cannot show this (one pseudo-mitigation
per super-window survives any depth); the multi-target variant hammers
one distinct row per postponed interval, forcing the queue to hold four
pending mitigations at once — shallower queues drop targets, and the
dropped targets accumulate without bound across super-windows.
"""

import random

from conftest import print_header, print_rows

from repro.attacks import AttackParams, postponement_decoy_multi
from repro.core.dmq import DelayedMitigationQueue, DMQ_ENTRY_BITS
from repro.core.mint import MintTracker
from repro.sim.engine import EngineConfig, RankSimulator


def test_ablation_dmq_depth(benchmark):
    params = AttackParams(max_act=73, intervals=600)
    targets = [55_000 + 10 * i for i in range(4)]

    def run():
        outcomes = {}
        for depth in (1, 2, 3, 4, 6, 8):
            # transitive=False isolates the paper's DMQ sizing argument
            # (the transitive slot re-submits a preserved SAR during
            # REF batches, which is accounted separately).
            tracker = DelayedMitigationQueue(
                MintTracker(transitive=False, rng=random.Random(depth)),
                max_act=73, depth=depth,
            )
            result = RankSimulator(
                lambda _bank: tracker,
                EngineConfig(trh=1e9, allow_postponement=True),
            ).run(postponement_decoy_multi(targets, params)).per_bank[0]
            peak = max(result.max_unmitigated.get(t, 0) for t in targets)
            outcomes[depth] = (peak, tracker.overflow_drops)
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation — DMQ depth vs the multi-target decoy attack")
    rows = [
        (depth, peak, drops, f"{depth * DMQ_ENTRY_BITS / 8.0:.1f}")
        for depth, (peak, drops) in sorted(outcomes.items())
    ]
    print_rows(
        ["Depth", "Peak unmitigated ACTs", "Dropped entries", "Bytes"],
        rows,
    )
    print("depth 4 = the DDR5 postponement ceiling: the knee of the curve")

    # Depth 4: no drops, single-interval exposure per target.
    assert outcomes[4][1] == 0
    assert outcomes[4][0] <= 365 + 292
    # Shallower queues drop entries and leak unbounded hammering
    # (the peak scales with the trace length).
    for depth in (1, 2, 3):
        assert outcomes[depth][1] > 0
        assert outcomes[depth][0] > 10 * outcomes[4][0]
    # Deeper queues buy nothing.
    assert outcomes[8][0] <= outcomes[4][0]
