"""Table IV: refresh postponement with and without the DMQ.

Includes the executable demonstration of the two key cells: the 478K
deterministic blow-up for MINT without DMQ, and the DMQ capping the
same attack at +292 activations.
"""

import random

from conftest import check_shape, print_header, print_rows

from repro.analysis.postponement import table4
from repro.attacks import AttackParams, postponement_decoy
from repro.core.dmq import DelayedMitigationQueue
from repro.core.mint import MintTracker
from repro.sim.engine import EngineConfig, RankSimulator

PAPER = {
    "PRCT": (623, 769, 769),
    "Mithril": (1400, 1546, 1546),
    "PARFM": (4096, 478_000, 4242),
    "InDRAM-PARA": (3732, 21_300, 3650),
    "MINT": (1400, 478_000, 1482),
}


def test_table4_postponement(benchmark):
    rows = benchmark(table4)
    print_header("Table IV — Impact of refresh postponement and DMQ")
    printable = []
    for row in rows:
        paper = PAPER[row.name]
        printable.append(
            (
                row.name,
                row.entries,
                f"{row.mintrh_d_no_postpone} ({paper[0]})",
                f"{row.mintrh_d_no_dmq} ({paper[1]})",
                f"{row.mintrh_d_with_dmq} ({paper[2]})",
            )
        )
    print_rows(
        ["Design", "Entries", "NoPostpone (paper)", "No DMQ (paper)",
         "With DMQ (paper)"],
        printable,
    )
    print("note: InDRAM-PARA 'No DMQ' deviates from the paper's 21.3K —"
          " our attacker sweeps acts-per-superwindow and finds a stronger"
          " pattern; the conclusion (demolished without DMQ) is identical.")

    by_name = {row.name: row for row in rows}
    check_shape("MINT no-DMQ", by_name["MINT"].mintrh_d_no_dmq, 478_000, rel=0.01)
    check_shape("MINT with DMQ", by_name["MINT"].mintrh_d_with_dmq, 1482, rel=0.02)
    check_shape("PARFM with DMQ", by_name["PARFM"].mintrh_d_with_dmq, 4242, rel=0.01)
    check_shape("PRCT postponed", by_name["PRCT"].mintrh_d_no_dmq, 769, rel=0.02)
    check_shape("Mithril postponed", by_name["Mithril"].mintrh_d_no_dmq, 1546, rel=0.02)
    # InDRAM-PARA: collapse without DMQ (>> baseline), repaired with DMQ.
    para = by_name["InDRAM-PARA"]
    assert para.mintrh_d_no_dmq > 4 * para.mintrh_d_no_postpone
    assert para.mintrh_d_with_dmq < 1.1 * para.mintrh_d_no_postpone + 160


def test_table4_executable_demonstration():
    """Run the decoy attack through the live simulator (both cells)."""
    params = AttackParams(max_act=73, intervals=1000)
    target = 42_000

    config = EngineConfig(trh=1e9, allow_postponement=True)
    plain = MintTracker(rng=random.Random(1))
    r1 = RankSimulator(lambda _bank: plain, config).run(
        postponement_decoy(target, params)
    ).per_bank[0]
    queued = DelayedMitigationQueue(MintTracker(rng=random.Random(2)),
                                    max_act=73, depth=4)
    r2 = RankSimulator(lambda _bank: queued, config).run(
        postponement_decoy(target, params)
    ).per_bank[0]
    print_header("Table IV (live) — decoy attack, 1000 tREFI slice")
    print_rows(
        ["Tracker", "peak unmitigated ACTs on target"],
        [("MINT", r1.max_unmitigated[target]),
         ("MINT+DMQ", r2.max_unmitigated[target])],
    )
    scale = 8192 / params.intervals
    print(f"scaled to a full tREFW: MINT ~{r1.max_unmitigated[target] * scale:,.0f}"
          f" (paper: 478K), MINT+DMQ stays {r2.max_unmitigated[target]}")
    assert r1.max_unmitigated[target] == 73 * 4 * (params.intervals // 5)
    assert r2.max_unmitigated[target] <= 365 + 292
