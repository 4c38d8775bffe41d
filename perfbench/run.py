"""The repo benchmark: the runs users wait for, checked and timed.

    python3 perfbench/run.py --workload paper-scenarios --seed 1 \
        --seconds 15 --trace 0

Runs one workload (see workloads.py and BENCHMARK.json) from the root
of a checkout, passes over its operations until ``--seconds`` have
elapsed, checks every output and prints human-readable lines followed
by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with nothing
wrapped and scaled to a reference host speed (see ``end_to_end``);
the values as measured are printed next to them. ``--trace 1``
reports the per-layer metrics: it first runs the untraced benchmark
for half the time in a child process (the baseline of the tracing
overhead), then wraps each layer's public functions (layers.py) and
passes over the workload again, recording spans. The spans are
written to ``.perfbench_out/`` when the run ends.

Exits non-zero without a result when the program cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from benchstats import (
    REFERENCE_CALIBRATION_S, HostSpeed, Ledger, at_percentile, fold, median,
    tail_percentile,
)
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("paper-scenarios", "channel-fused", "mc-windows", "exp-service")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
BASELINE_TIMEOUT_S = 150
#: Passes every measurement makes at least, whatever ``--seconds``, so
#: that every op is timed at least twice even where a pass takes
#: longer than a whole run (``paper-scenarios``).
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "acts_per_s": "1/s",
    "results_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> (unit, span whose self time it is, or None).
PER_LAYER = {
    "engine.self_ms": ("ms", "engine.run"),
    "engine.construct_ms": ("ms", "engine.construct"),
    "engine.collect_ms": ("ms", "engine.collect"),
    "engine.steps": ("count", None),
    "engine.steps_compiled_frac": ("ratio", None),
    "engine.steps_fast_frac": ("ratio", None),
    "engine.steps_slow_frac": ("ratio", None),
    "engine.plan_lookups": ("count", None),
    "engine.plan_hit_rate": ("ratio", None),
    "engine.compiled_bails": ("count", None),
    "kernels.march_ms": ("ms", "kernels.march"),
    "kernels.march_calls": ("count", None),
    "trackers.dispatch_ms": ("ms", "trackers.dispatch"),
    "trackers.dispatch_calls": ("count", None),
    "trackers.build_ms": ("ms", "trackers.build"),
    "dram.activate_ms": ("ms", "dram.activate"),
    "dram.activate_calls": ("count", None),
    "attacks.build_trace_ms": ("ms", "attacks.build_trace"),
    "attacks.acts_built": ("count", None),
    "scenario.session_self_ms": ("ms", "scenario.session"),
    "montecarlo.window_ms": ("ms", "montecarlo.window"),
    "results.to_payload_ms": ("ms", "results.to_payload"),
    "exp.runner_self_ms": ("ms", "exp.run_grid"),
    "exp.execute_s": ("s", None),
    "exp.commit_s": ("s", None),
    "store.flush_ms": ("ms", "store.flush"),
    "store.flush_bytes": ("bytes", None),
    "store.load_ms": ("ms", "store.load"),
    "query.api_ms": ("ms", "query.api"),
    "query.lookups": ("count", None),
    "query.hit_rate": ("ratio", None),
    "serve.http_self_ms": ("ms", "serve.http"),
    "trace.spans": ("count", None),
    "trace.acts_per_s_untraced": ("1/s", None),
    "trace.acts_per_s_traced": ("1/s", None),
    "trace.acts_per_s_overhead": ("share", None),
    "trace.op_p50_ms_untraced": ("ms", None),
    "trace.op_p50_ms_traced": ("ms", None),
    "trace.op_p50_overhead": ("share", None),
}

#: Pass counters that must repeat exactly from pass to pass.
REPEATING = (
    "engine.steps", "engine.steps_compiled", "engine.steps_fast",
    "engine.steps_slow", "engine.plan_hits", "engine.plan_misses",
    "kernels.march_calls", "trackers.dispatch_calls", "attacks.acts_built",
    "store.flush_bytes", "query.hits", "query.misses",
)


class SetupError(RuntimeError):
    """The program could not be set up or run at all: no result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


# -- set-up --------------------------------------------------------------
def kernel_build_present() -> bool:
    return any((SRC / "repro" / "kernels" / "_build").glob("march-*.so"))


def probe(workload: str, seed: int) -> dict:
    """One timed set-up in a fresh interpreter (probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"),
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up failed:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_program():
    """Put the program on the path and import the benchmark modules."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program source under {SRC.name}/repro")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


# -- measuring -----------------------------------------------------------
def measure(workload, ctx, seconds: float, min_passes: int, on_pass=None):
    """Warm up, then pass over the workload until ``seconds`` elapsed.

    With a tracer, spans are recorded only inside passes; ``on_pass``
    runs after each pass with recording off.
    """
    ledger = Ledger()
    try:
        workload.warmup()
        ledger.record("warm-up", None)
    except Exception as error:
        ledger.record("warm-up", f"raised {type(error).__name__}: {error}")
    passes = []
    started = time.perf_counter()
    while True:
        ctx.passes = len(passes)
        if ctx.tracer is not None:
            ctx.tracer.recording = True
        records = workload.run_pass(ctx)
        if ctx.tracer is not None:
            ctx.tracer.recording = False
        if ctx.host is not None:
            ctx.host.tick(force=True)  # the speed after the pass's last op
        if on_pass is not None:
            on_pass()
        passes.append(records)
        elapsed = time.perf_counter() - started
        if len(passes) >= min_passes and elapsed >= seconds:
            return passes, ledger, elapsed


def stored_reference(name: str, seed: int, default_seed: int) -> dict | None:
    """What reference.json holds for workload ``name``: only the default
    seed has a stored reference."""
    if seed != default_seed:
        return None
    return json.loads((HERE / "reference.json").read_text()).get(name)


def check_passes(name: str, seed: int, passes, ledger, default_seed: int):
    """Count every op, failing those whose result differs from the
    stored reference (default seed) or from the first pass."""
    first = passes[0]
    reference = stored_reference(name, seed, default_seed)
    expected = (
        reference["ops"] if reference is not None
        else [record.digest for record in first]
    )
    against = "the reference engine" if reference is not None else "pass 0"
    for records in passes:
        if len(records) != len(expected):
            ledger.record(name, f"pass ran {len(records)} ops, "
                                f"expected {len(expected)}")
        for index, record in enumerate(records):
            problem = record.problem
            want = expected[index] if index < len(expected) else None
            if problem is None and record.digest != want:
                problem = f"result differs from {against}"
            ledger.record(record.label, problem)
    sim_digest = fold(r.digest for r in first if r.digest is not None)
    matches = None if reference is None else sim_digest == reference["sim_digest"]
    return sim_digest, matches


def completed(records) -> list:
    """The ops of one pass that completed; the ledger counts the rest."""
    return [r for r in records if r.latency is not None or r.sim_seconds]


def end_to_end(passes, setups, host=None):
    """The end-to-end metrics over every completed op of every pass.

    A throughput is the work of all passes over their summed time, and
    a latency percentile is taken over the samples of all passes
    pooled, so every timed metric averages over the whole run. The
    tail's percentile comes from the tail rule on one pass's sample
    count, so it is the same however many passes a run makes.

    With ``host`` (the :class:`HostSpeed` sampled during the run),
    each op's timing is first scaled to the reference host speed. On a
    shared 2-vCPU Xeon VM, ten mc-windows runs of the same code read
    from 67k to 103k ACTs/s within a few minutes, far more than
    averaging within one run removes, and the time of a fixed
    pure-Python loop moved with them: over ten runs the IQR/median of
    acts_per_s was 14% as measured and 4% scaled.
    """
    done = [completed(records) for records in passes]

    def scaled(record, seconds):
        if host is None:
            return seconds
        return seconds * host.factor(record.started, record.ended)

    latencies = [scaled(r, r.latency) for ops in done for r in ops
                 if r.latency is not None]
    sim = sum(scaled(r, r.sim_seconds) for ops in done for r in ops)
    if not sim or not latencies:
        raise SetupError("no operation completed; nothing to time")
    per_pass = max(sum(r.latency is not None for r in ops) for ops in done)
    percentile = tail_percentile(per_pass)
    tail_s, beyond = at_percentile(latencies, percentile)
    metrics = {
        "setup_s": median(setups),
        "acts_per_s": sum(r.acts for ops in done for r in ops) / sim,
        "results_per_s": sum(r.results for ops in done for r in ops) / sim,
        "op_p50_ms": median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"tail_percentile": percentile, "tail_beyond": beyond,
            "samples": len(latencies), "per_pass": per_pass,
            "passes": len(passes)}
    return metrics, info


def normalized_setup(probe_result: dict) -> float:
    """A probe's set-up time at the reference host speed."""
    return (probe_result["setup_s"] * REFERENCE_CALIBRATION_S
            / probe_result["calibration_s"])


def print_host(host: HostSpeed) -> None:
    loops = sorted(seconds for _, seconds in host.samples)
    print(f"host speed: {len(loops)} calibration loops, median "
          f"{median(loops) * 1e3:.2f} ms (fastest {loops[0] * 1e3:.2f}, "
          f"slowest {loops[-1] * 1e3:.2f}); timings are scaled to a loop "
          f"of {REFERENCE_CALIBRATION_S * 1e3:g} ms")


#: The issue-level names of each workload's end-to-end numbers, printed
#: alongside the generic metrics they equal.
ALIASES = {
    "paper-scenarios": {"run_p50_ms": "op_p50_ms", "run_tail_ms": "op_tail_ms"},
    "channel-fused": {"run_p50_ms": "op_p50_ms", "run_tail_ms": "op_tail_ms"},
    "mc-windows": {"windows_per_s": "results_per_s",
                   "estimate_p50_ms": "op_p50_ms",
                   "estimate_tail_ms": "op_tail_ms"},
    "exp-service": {"grid_cold_points_per_s": "results_per_s",
                    "query_p50_ms": "op_p50_ms",
                    "query_tail_ms": "op_tail_ms"},
}


def emit(correct: bool, ledger, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))


def print_common(args, ledger, sim_digest, matches, elapsed, passes):
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(passes)}  measured {elapsed:.2f} s")
    print(f"error_rate {ledger.error_rate:.6g}  "
          f"({ledger.failed} failed / {ledger.attempted} attempted)")
    for reason in ledger.reasons:
        print(f"  failed: {reason}")
    status = {None: "no stored reference for this seed",
              True: "matches the scalar reference engine",
              False: "DIFFERS from the scalar reference engine"}[matches]
    print(f"sim_digest {sim_digest}  ({status})")


class PassCounters:
    """Takes each traced pass's counters, with recording off: the
    tracer's result-hook counts, the ACTs of the traces built and the
    calls of the layers counted by span."""

    def __init__(self, tracer: Tracer, workloads) -> None:
        import layers

        self.tracer = tracer
        self.count_acts = workloads.count_acts
        self.traces: list = []
        self.passes: list[dict] = []
        self.mark = 0
        layers.install(tracer, self.traces)

    def __call__(self) -> None:
        tracer = self.tracer
        counters = dict(tracer.counters)
        counters["attacks.acts_built"] = sum(
            self.count_acts(trace) for trace in self.traces)
        self.traces.clear()
        calls = tracer.calls(self.mark)
        for span in ("kernels.march", "trackers.dispatch", "dram.activate"):
            counters[f"{span}_calls"] = calls.get(span, 0)
        counters["trace.spans"] = len(tracer) - self.mark
        self.passes.append(counters)
        self.mark = len(tracer)
        tracer.counters = {}


def repeat_drift(pass_counters: list[dict], expected: dict | None) -> list[str]:
    """How the :data:`REPEATING` counters of each pass differ from
    ``expected``, or from the first pass when nothing is stored."""
    if expected is None:
        expected, against = pass_counters[0], "pass 0"
    else:
        against = "reference.json"
    problems = []
    for index, counters in enumerate(pass_counters):
        for key in REPEATING:
            got, want = counters.get(key, 0), expected.get(key, 0)
            if got != want:
                problems.append(
                    f"pass {index}: {key} {got:g}, {against} {want:g}")
    return problems


# -- the two modes -------------------------------------------------------
def untraced(args) -> int:
    workloads = load_program()
    build_cold = not kernel_build_present()
    first = probe(args.workload, args.seed)  # builds the C kernel if cold
    probes = [probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    scratch = ROOT / ".perfbench_tmp" / f"run-{time.time_ns()}"
    scratch.mkdir(parents=True)
    try:
        workload = workloads.build(args.workload, args.seed)
        host = HostSpeed()
        ctx = workloads.Context(scratch=scratch, host=host)
        passes, ledger, elapsed = measure(
            workload, ctx, args.seconds, MIN_PASSES)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sim_digest, matches = check_passes(
        args.workload, args.seed, passes, ledger, workloads.DEFAULT_SEED)
    metrics, info = end_to_end(
        passes, [normalized_setup(p) for p in probes], host)
    measured, _ = end_to_end(passes, [p["setup_s"] for p in probes])

    print_common(args, ledger, sim_digest, matches, elapsed, passes)
    print(f"kernel provider {first['provider']}  C kernel build "
          f"{'cold (built by the first set-up)' if build_cold else 'warm'}; "
          f"first set-up {first['setup_s']:.4f} s, then median of "
          f"{SETUP_PROBES}")
    print_host(host)
    for name, unit in END_TO_END.items():
        print(f"{name} {metrics[name]:.6g} {unit}  "
              f"(as measured: {measured[name]:.6g})")
    print(f"  op_tail_ms is p{info['tail_percentile']:g} of {info['samples']} "
          f"samples ({info['tail_beyond']} beyond) from {info['passes']} "
          f"passes of {info['per_pass']} ops")
    for alias, name in ALIASES[args.workload].items():
        print(f"{alias} {metrics[name]:.6g} {END_TO_END[name]}")
    warm = [r.extra["grid_warm_s"] for p in passes for r in p
            if "grid_warm_s" in r.extra]
    if warm:
        print(f"grid_warm_s {median(warm):.6g} s")
    correct = ledger.failed == 0 and matches is not False
    emit(correct, ledger, metrics, END_TO_END)
    return 0


def traced(args) -> int:
    workloads = load_program()
    baseline_seconds = max(1, args.seconds // 2)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(baseline_seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=BASELINE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError(f"untraced baseline failed:\n{proc.stderr[-2000:]}")
    baseline = json.loads(proc.stdout.strip().splitlines()[-1])

    tracer = Tracer()
    counters = PassCounters(tracer, workloads)
    host = HostSpeed()

    scratch = ROOT / ".perfbench_tmp" / f"run-{time.time_ns()}"
    scratch.mkdir(parents=True)
    try:
        workload = workloads.build(args.workload, args.seed)
        ctx = workloads.Context(tracer=tracer, scratch=scratch, host=host)
        passes, ledger, elapsed = measure(
            workload, ctx, max(1, args.seconds - baseline_seconds), MIN_PASSES,
            counters)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sim_digest, matches = check_passes(
        args.workload, args.seed, passes, ledger, workloads.DEFAULT_SEED)
    traced_e2e, _ = end_to_end(passes, [0.0], host)

    pass_counters = counters.passes
    reference = stored_reference(
        args.workload, args.seed, workloads.DEFAULT_SEED)
    drift = repeat_drift(
        pass_counters, None if reference is None else reference["counters"])
    n = len(passes)
    self_ns = tracer.self_ns()
    totals: dict[str, float] = {}
    for one in pass_counters:
        for key, value in one.items():
            totals[key] = totals.get(key, 0) + value
    per_pass = {key: value / n for key, value in totals.items()}

    def ratio(part: str, whole: float) -> float:
        return per_pass.get(part, 0) / whole if whole else 0.0

    steps = per_pass.get("engine.steps", 0)
    lookups = per_pass.get("engine.plan_hits", 0) + per_pass.get(
        "engine.plan_misses", 0)
    queries = per_pass.get("query.hits", 0) + per_pass.get("query.misses", 0)
    metrics = {
        "engine.steps": steps,
        "engine.steps_compiled_frac": ratio("engine.steps_compiled", steps),
        "engine.steps_fast_frac": ratio("engine.steps_fast", steps),
        "engine.steps_slow_frac": ratio("engine.steps_slow", steps),
        "engine.plan_lookups": lookups,
        "engine.plan_hit_rate": ratio("engine.plan_hits", lookups),
        "engine.compiled_bails": per_pass.get("engine.compiled_bails", 0),
        "kernels.march_calls": per_pass.get("kernels.march_calls", 0),
        "trackers.dispatch_calls": per_pass.get("trackers.dispatch_calls", 0),
        "dram.activate_calls": per_pass.get("dram.activate_calls", 0),
        "attacks.acts_built": per_pass.get("attacks.acts_built", 0),
        "exp.execute_s": per_pass.get("exp.execute_s", 0),
        "exp.commit_s": per_pass.get("exp.commit_s", 0),
        "store.flush_bytes": per_pass.get("store.flush_bytes", 0),
        "query.lookups": queries,
        "query.hit_rate": ratio("query.hits", queries),
        "trace.spans": per_pass.get("trace.spans", 0),
    }
    for metric, (unit, span) in PER_LAYER.items():
        if span is not None:
            metrics[metric] = self_ns.get(span, 0) / n / 1e6
    untraced_acts = baseline["metrics"]["acts_per_s"]["value"]
    untraced_p50 = baseline["metrics"]["op_p50_ms"]["value"]
    metrics.update({
        "trace.acts_per_s_untraced": untraced_acts,
        "trace.acts_per_s_traced": traced_e2e["acts_per_s"],
        "trace.acts_per_s_overhead":
            (untraced_acts - traced_e2e["acts_per_s"]) / untraced_acts,
        "trace.op_p50_ms_untraced": untraced_p50,
        "trace.op_p50_ms_traced": traced_e2e["op_p50_ms"],
        "trace.op_p50_overhead":
            (traced_e2e["op_p50_ms"] - untraced_p50) / untraced_p50,
    })

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(spans_path)
    tracer.restore()

    print_common(args, ledger, sim_digest, matches, elapsed, passes)
    print(f"traced: {len(tracer)} spans written to "
          f"{spans_path.relative_to(ROOT)}; untraced baseline ran "
          f"{baseline_seconds} s in its own process")
    print("repeat counters match "
          + ("pass 0" if reference is None else "reference.json")
          + (": NO" if drift else ": yes"))
    for problem in drift:
        print(f"  {problem}")
    for metric, (unit, _span) in PER_LAYER.items():
        print(f"{metric} {metrics[metric]:.6g} {unit}")
    print(f"  bases: engine.steps {steps:g}, engine.plan_lookups {lookups:g}, "
          f"query.lookups {queries:g} (per pass)")
    correct = ledger.failed == 0 and matches is not False and not drift
    emit(correct, ledger, metrics, {k: u for k, (u, _s) in PER_LAYER.items()})
    return 0


def pin_to_one_cpu() -> None:
    """Run this process, and the processes it starts, on one CPU.

    The exp-service client and server threads hand every request back
    and forth. Spread over two vCPUs of a shared VM, each hand-off
    waits for the host to wake the idle vCPU, and other tenants' load
    slows that: there the median HTTP latency read 0.85 ms in one set
    of runs and 1.2 ms in the next, and 0.83-0.97 ms pinned. The
    program runs Python one thread at a time under the GIL, so one CPU
    takes no parallelism from it. The last allowed CPU is taken, as
    CPU 0 usually serves most interrupts.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    try:
        return traced(args) if args.trace else untraced(args)
    except (SetupError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
