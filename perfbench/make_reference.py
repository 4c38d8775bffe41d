"""Regenerate reference.json: the expected results at the default seed.

Runs one pass of every workload at ``workloads.DEFAULT_SEED`` on the
scalar reference engine (``vectorized=False``: per-ACT dispatch and
the sparse dict oracle) and stores each operation's result digest and
the workload's ``sim_digest``. run.py fails any operation at the
default seed whose result differs from it.

It also stores the counters that must repeat exactly (run.REPEATING),
taken from one traced pass of the default engine in a fresh
interpreter, as a ``--trace 1`` run takes them; a traced run at the
default seed is not correct when any pass differs from them.
Regenerate only when the simulated results or the engine paths are
meant to change.

    python3 perfbench/make_reference.py [--check]

``--check`` compares instead of writing: it exits non-zero when the
reference engine no longer reproduces the stored digests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from run import (HERE, REPEATING, ROOT, WORKLOADS, PassCounters, load_program,
                 measure)
from spans import Tracer


def traced_counters(name: str) -> dict:
    """The :data:`REPEATING` counters of one traced pass of ``name`` on
    the default engine at the default seed, in this interpreter."""
    workloads = load_program()
    tracer = Tracer()
    counters = PassCounters(tracer, workloads)
    scratch = ROOT / ".perfbench_tmp" / f"reference-{time.time_ns()}"
    scratch.mkdir(parents=True)
    try:
        workload = workloads.build(name, workloads.DEFAULT_SEED)
        ctx = workloads.Context(tracer=tracer, scratch=scratch)
        _passes, ledger, _elapsed = measure(workload, ctx, 0, 1, counters)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        tracer.restore()
    if ledger.failed:
        raise RuntimeError(f"{name}: traced pass failed: {ledger.reasons}")
    return {key: counters.passes[0].get(key, 0) for key in REPEATING}


def fresh_counters(name: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--counters", name],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--counters", choices=WORKLOADS,
                        help="print one workload's repeat counters and exit")
    args = parser.parse_args()
    if args.counters:
        print(json.dumps(traced_counters(args.counters)))
        return 0
    workloads = load_program()
    from benchstats import fold

    document = {}
    for name in WORKLOADS:
        scratch = ROOT / ".perfbench_tmp" / f"reference-{time.time_ns()}"
        scratch.mkdir(parents=True)
        try:
            workload = workloads.build(name, workloads.DEFAULT_SEED,
                                       reference=True)
            records = workload.run_pass(workloads.Context(scratch=scratch))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        problems = [f"{r.label}: {r.problem}" for r in records if r.problem]
        if problems:
            print(f"{name}: reference run failed:\n  " + "\n  ".join(problems))
            return 1
        ops = [record.digest for record in records]
        document[name] = {
            "seed": workloads.DEFAULT_SEED,
            "engine": "scalar reference (vectorized=False)",
            "sim_digest": fold(d for d in ops if d is not None),
            "ops": ops,
            "counters": fresh_counters(name),
        }
        print(f"{name}: {document[name]['sim_digest']}")
    path = HERE / "reference.json"
    if args.check:
        stored = json.loads(path.read_text())
        if stored != document:
            print("reference.json is not reproduced")
            return 1
        print("reference.json reproduced")
        return 0
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
