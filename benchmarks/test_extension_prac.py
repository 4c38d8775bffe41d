"""Extension: MINT vs PRAC — the trade the paper's Section IX frames.

PRAC (now in JESD79-5C) embeds a counter in every DRAM row: principled,
deterministic protection, but ~9% area and a tRC stretch from 48 to
52 ns that costs activation throughput on every access, protected or
not. MINT's pitch is that a 4-byte probabilistic tracker gets within 2x
of the idealized counter design without those taxes. This bench puts
the trade side by side.
"""

import random

from conftest import print_header, print_rows

from repro.analysis.adaptive import AdaConfig, worst_case_ada_mintrh
from repro.attacks import AttackParams, double_sided
from repro.perf.memctrl import MemorySystemSim, MitigationPolicy
from repro.perf.workloads import RATE_WORKLOADS, rate_mix
from repro.sim.engine import EngineConfig, RankSimulator
from repro.trackers.prac import (
    PRAC_AREA_OVERHEAD,
    PracTracker,
    prac_throughput_cost,
    prac_timing,
)


def test_extension_mint_vs_prac(benchmark):
    def run():
        # Security: both stop the classic double-sided attack.
        params = AttackParams(max_act=73, intervals=1000)
        prac = PracTracker(alert_threshold=512)
        prac_result = RankSimulator(
            lambda _bank: prac, EngineConfig(trh=1200)
        ).run(double_sided(params, victim=params.base_row))
        from repro.core.mint import MintTracker

        mint = MintTracker(rng=random.Random(1))
        mint_result = RankSimulator(
            lambda _bank: mint, EngineConfig(trh=1200)
        ).run(double_sided(params, victim=params.base_row))
        # Performance: PRAC's slower tRC taxes a memory-bound workload.
        cores = rate_mix(RATE_WORKLOADS[1])  # lbm-like streaming
        base = MemorySystemSim(cores, MitigationPolicy("none"), seed=9)
        base_ipc = base.run(400_000.0).ipc
        prac_sim = MemorySystemSim(
            cores, MitigationPolicy("none"), timing=prac_timing(), seed=9
        )
        prac_ipc = prac_sim.run(400_000.0).ipc
        return {
            "prac_ok": not prac_result.failed,
            "mint_ok": not mint_result.failed,
            "prac_rel_perf": prac_ipc / base_ipc,
            "prac_mintrh_d": PracTracker(alert_threshold=512).mintrh_d(),
            "mint_mintrh_d": worst_case_ada_mintrh(
                AdaConfig(), double_sided=True
            )[1],
        }

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Extension — MINT vs PRAC (JESD79-5C)")
    print_rows(
        ["Property", "MINT", "PRAC"],
        [
            ("protection", "probabilistic (10K-year MTTF)",
             "deterministic"),
            ("MinTRH-D", r["mint_mintrh_d"],
             f"{r['prac_mintrh_d']} (alert 512)"),
            ("SRAM / area", "4 B per bank",
             f"~{PRAC_AREA_OVERHEAD * 100:.0f}% DRAM array area"),
            ("tRC", "48 ns (unchanged)", "52 ns (+8.3%)"),
            ("memory-bound throughput", "1.000",
             f"{r['prac_rel_perf']:.3f}"),
            ("peak ACT throughput cost", "0%",
             f"{prac_throughput_cost() * 100:.1f}%"),
        ],
    )
    print("the paper's Section IX argument: if a low-cost secure tracker"
          " exists, vendors can skip PRAC's area/timing taxes — MINT is"
          " that alternative.")

    assert r["prac_ok"] and r["mint_ok"]
    # PRAC's always-on timing tax is visible on memory-bound workloads.
    assert r["prac_rel_perf"] < 0.99
    assert prac_throughput_cost() > 0.05
