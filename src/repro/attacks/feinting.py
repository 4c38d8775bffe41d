"""Feinting attack traces against counter-based trackers (§V-G).

The executable counterpart of :mod:`repro.analysis.feinting`: keep all
surviving aggressor counters equal so the tracker's pick-the-max
mitigation gains nothing, and funnel the budget into fewer and fewer
rows. The generator is adaptive — it needs to know which row the
tracker mitigated — so it is expressed as a driver over the simulation
engine rather than a static trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.engine import EngineConfig, RankSimulator
from ..sim.trace import RankInterval
from ..trackers.base import Tracker
from .base import AttackParams, spaced_rows


@dataclass
class FeintingOutcome:
    """What the adaptive feinting driver achieved."""

    rounds: int
    peak_unmitigated: int
    survivor_rows: list[int]
    flips: int


def run_feinting(
    tracker: Tracker,
    initial_rows: int = 256,
    params: AttackParams | None = None,
    trh: float = 1e9,
    spacing: int = 8,
    num_rows: int = 128 * 1024,
) -> FeintingOutcome:
    """Drive the feinting schedule against a live tracker.

    Water-fills activations across the rows the tracker has not yet
    mitigated; each refresh removes (at most) one row from the pool.
    ``trh`` defaults high so the run measures the achievable water
    level rather than stopping at a flip.
    """
    params = params or AttackParams()
    engine = RankSimulator(
        lambda _bank: tracker, EngineConfig(trh=trh, num_rows=num_rows)
    )
    since_mitigation = engine._bank_since[0]
    pool = spaced_rows(initial_rows, params.base_row, spacing)
    counts = {row: 0 for row in pool}
    rounds = 0
    peak = 0
    while len(pool) > 1 and rounds < params.intervals:
        rounds += 1
        # Equalise: hand this interval's budget to the lowest-count rows.
        budget = params.max_act
        order = sorted(pool, key=counts.__getitem__)
        interval: list[int] = []
        index = 0
        while budget > 0:
            row = order[index % len(order)]
            interval.append(row)
            counts[row] += 1
            peak = max(peak, counts[row])
            budget -= 1
            index += 1
        engine.feed([RankInterval.of((0, row) for row in interval)])
        # Remove pool rows whose unmitigated run was reset (mitigated).
        pool = [
            row for row in pool if since_mitigation.get(row, 0) > 0
        ] or pool[:1]
    flips = len(engine.device.flips(0))
    return FeintingOutcome(
        rounds=rounds,
        peak_unmitigated=peak,
        survivor_rows=pool,
        flips=flips,
    )
