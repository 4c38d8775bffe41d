"""Rank-level simulation throughput: scaling in banks, kernel speedup.

Two pins on the engine's hot loop:

* Sub-linear bank scaling — the fused march folds every bank's ACT
  batch into one packed disturbance scatter per interval, so the
  per-ACT cost should be nearly flat as banks are added: driving B
  banks at full rate costs ~B× the *work* of one bank (B× the ACTs),
  not B× the *per-ACT overhead*.
* Vectorized-kernel speedup — the NumPy activation kernel (array
  interval views + shared per-unique-row aggregation + batched
  oracle/tracker updates) must beat the scalar per-ACT engine it
  replaced by at least 2× at 8 banks, while producing a bit-identical
  :class:`~repro.sim.results.RankSimResult` (the scalar path *is* the
  pre-vectorization engine, so this doubles as the no-regression pin).
"""

import json
import time
from dataclasses import asdict

from conftest import print_header, print_rows

from repro.attacks.base import AttackParams
from repro.attacks.channel import rank_synchronized
from repro.attacks.rank import rank_stripe
from repro.sim.engine import ChannelSimulator, EngineConfig, RankSimulator
from repro.trackers.registry import (
    bank_tracker_factory,
    channel_tracker_factory,
)

INTERVALS = 400
MAX_ACT = 73
#: Throughput at 4 banks must retain at least this fraction of the
#: 1-bank throughput (1.0 == perfectly flat hot loop; linear
#: degradation would put it near 0.25).
MIN_RETAINED = 0.35
#: Floor on the fused march's speedup over the scalar reference at
#: 8 banks (measured ~5.3× for MINT on a 2-CPU container).
MIN_KERNEL_SPEEDUP = 2.0
#: Channel throughput at 4 ranks must retain this fraction of 1-rank
#: throughput (every rank runs through one fused kernel; measured
#: ~0.8 on a 2-CPU container).
MIN_CHANNEL_RETAINED = 0.35


def _run(num_banks: int, vectorized: bool | None = None):
    """Best-of-3 (result, ACTs/second) for a full-rate rank run."""
    params = AttackParams(
        max_act=MAX_ACT, intervals=INTERVALS, base_row=1000
    )
    trace = rank_stripe(3 * num_banks, num_banks, params)
    total_acts = trace.total_acts
    assert total_acts == num_banks * MAX_ACT * INTERVALS
    best = float("inf")
    result = None
    for _ in range(3):
        simulator = RankSimulator(
            bank_tracker_factory("mint", base_seed=7),
            EngineConfig(num_banks=num_banks, trh=1e9, vectorized=vectorized),
        )
        started = time.perf_counter()
        result = simulator.run(trace)
        best = min(best, time.perf_counter() - started)
    return result, total_acts / best, total_acts


def _throughput(num_banks: int) -> tuple[float, int]:
    _, acts_per_second, total_acts = _run(num_banks)
    return acts_per_second, total_acts


def test_rank_throughput_scales_sublinearly_in_banks():
    single, single_acts = _throughput(1)
    rank, rank_acts = _throughput(4)

    retained = rank / single
    print_header("Rank engine throughput vs bank count (MINT, full rate)")
    print_rows(
        ["banks", "ACTs", "ACTs/second", "retained"],
        [
            ["1", single_acts, f"{single:,.0f}", "1.00"],
            ["4", rank_acts, f"{rank:,.0f}", f"{retained:.2f}"],
        ],
    )

    assert retained >= MIN_RETAINED, (
        f"4-bank throughput retained only {retained:.2f} of the 1-bank "
        f"figure (floor {MIN_RETAINED}); the per-bank hot loop has "
        f"regressed toward per-ACT dispatch"
    )


def test_vectorized_kernel_speedup_and_bit_identity():
    """The NumPy kernel is ≥2× the scalar engine at 8 banks, same bits."""
    scalar_result, scalar_tp, total_acts = _run(8, vectorized=False)
    vector_result, vector_tp, _ = _run(8, vectorized=True)

    speedup = vector_tp / scalar_tp
    print_header("Vectorized activation kernel vs scalar engine (MINT, 8 banks)")
    print_rows(
        ["kernel", "ACTs", "ACTs/second", "speedup"],
        [
            ["scalar", total_acts, f"{scalar_tp:,.0f}", "1.00"],
            ["vectorized", total_acts, f"{vector_tp:,.0f}", f"{speedup:.2f}"],
        ],
    )

    # Bit-identity first: a fast-but-different kernel is worthless.
    # Canonical JSON catches stray NumPy scalar types that dataclass
    # equality would let through.
    assert json.dumps(asdict(scalar_result), sort_keys=True) == json.dumps(
        asdict(vector_result), sort_keys=True
    ), "vectorized kernel changed the RankSimResult"

    assert speedup >= MIN_KERNEL_SPEEDUP, (
        f"vectorized kernel is only {speedup:.2f}x the scalar engine at "
        f"8 banks (floor {MIN_KERNEL_SPEEDUP}x)"
    )


def _run_channel(num_ranks: int):
    """Best-of-3 (result, ACTs/second) for a full-rate channel run."""
    params = AttackParams(max_act=MAX_ACT, intervals=INTERVALS, base_row=1000)
    trace = rank_synchronized(6, num_ranks, params, num_banks=2)
    total_acts = num_ranks * 2 * MAX_ACT * INTERVALS
    best = float("inf")
    result = None
    for _ in range(3):
        simulator = ChannelSimulator(
            channel_tracker_factory("mint", base_seed=7),
            EngineConfig(num_banks=2, trh=1e9, num_ranks=num_ranks),
        )
        started = time.perf_counter()
        result = simulator.run(trace)
        best = min(best, time.perf_counter() - started)
    assert result.demand_acts == total_acts
    return result, total_acts / best, total_acts


def test_channel_throughput_scales_sublinearly_in_ranks():
    """Driving R ranks costs ~R× the work of one, not R× the overhead.

    The channel march (streamed per-rank schedules through one fused
    kernel) must not regress the rank hot loop: per-ACT cost stays
    nearly flat as ranks are added.
    """
    single_result, single, single_acts = _run_channel(1)
    channel_result, channel, channel_acts = _run_channel(4)

    retained = channel / single
    print_header("Channel engine throughput vs rank count (MINT, full rate)")
    print_rows(
        ["ranks", "ACTs", "ACTs/second", "retained"],
        [
            ["1", single_acts, f"{single:,.0f}", "1.00"],
            ["4", channel_acts, f"{channel:,.0f}", f"{retained:.2f}"],
        ],
    )

    assert channel_result.num_ranks == 4
    assert retained >= MIN_CHANNEL_RETAINED, (
        f"4-rank throughput retained only {retained:.2f} of the 1-rank "
        f"figure (floor {MIN_CHANNEL_RETAINED}); the channel march has "
        f"regressed the rank hot loop"
    )
