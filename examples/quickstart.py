#!/usr/bin/env python3
"""Quickstart: protect a DRAM bank with MINT.

Runs the classic double-sided Rowhammer attack against an unprotected
bank and against MINT, at a modern threshold (TRH-D = 4800, the lowest
LPDDR4 value from the paper's Table II), and shows the outcome.

Run:  python examples/quickstart.py
"""

from repro import Scenario, Session


def main() -> None:
    # One refresh window's worth of hammering (8192 tREFI), full rate.
    trh_d = 4800
    attack = dict(attack="double-sided", trh=trh_d, intervals=8192, seed=42)
    trace = Scenario(tracker="none", **attack).build_trace()

    print(f"attack: {trace.name}, {trace.total_acts:,} activations "
          f"over {len(trace)} tREFI (one 32 ms refresh window)")
    print(f"device threshold: TRH-D = {trh_d}\n")

    unprotected = Session(Scenario(tracker="none", **attack)).run().bank(0)
    print(f"unprotected bank : {unprotected.summary()}")
    if unprotected.failed:
        flip = unprotected.flips[0]
        print(f"                   first flip in row {flip.row} after "
              f"{flip.disturbance:.0f} disturbances "
              f"({flip.time_ns / 1e6:.2f} ms into the window)")

    session = Session(Scenario(tracker="mint", **attack))
    protected = session.run().bank(0)
    tracker = session.trackers[0]
    print(f"with MINT        : {protected.summary()}")
    print(f"                   {protected.mitigations} victim refreshes "
          f"({protected.transitive_mitigations} transitive), "
          f"tracker storage: {tracker.storage_bits // 8} bytes")

    assert unprotected.failed and not protected.failed
    print("\nMINT (single-entry, 4 bytes per bank) stopped the attack "
          "the unprotected bank failed in milliseconds.")


if __name__ == "__main__":
    main()
