"""The four workloads: their inputs, one pass over them, and the checks.

A workload is built from ``--seed`` alone (:func:`build`) and then run
pass after pass; every pass executes the same operations on the same
inputs, so its results and counters repeat exactly. All load comes
from this one process as a closed loop: every grid and Monte-Carlo
call runs inline (``n_workers=1``) and the HTTP client sends one
request on one connection at a time, so the numbers measure the
program and not the host's scheduler.

Each operation yields a :class:`Record`; an operation that raises or
fails a check carries a ``problem`` and counts as failed.
"""

from __future__ import annotations

import csv
import http.client
import io
import json
import random
import shutil
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable
from urllib.parse import quote, urlencode

import repro.exp as exp
from repro import Scenario, Session
from repro.exp import ExperimentGrid, PointConfig, QueryAPI, ResultStore
from repro.exp.query import SWEEP_CSV_COLUMNS, sweep_csv_rows
from repro.exp.serve import make_server
from repro.scenario import AttackSpec, TrackerSpec
from repro.trackers.registry import available_trackers

from benchstats import digest, fold

DEFAULT_SEED = 1
#: MinTRH of MINT without RFM, the paper's headline threshold.
PAPER_TRH = 1482.0
#: The paper's classic row attacks (Section V).
CLASSIC_ATTACKS = (
    AttackSpec.of("single-sided"),
    AttackSpec.of("double-sided"),
    AttackSpec.of("many-sided", sides=12),
    AttackSpec.of("half-double"),
    AttackSpec.of("blacksmith"),
    AttackSpec.of("decoy"),
)
#: Pass sizes. A pass repeats every op of a workload, and each pass
#: has enough latency samples for a tail above the median (see
#: benchstats.tail_percentile). ``paper-scenarios`` keeps the Scenario
#: default horizon of 2000 tREFI (72 runs, about 17 s a pass), as
#: ``repro run`` and ``repro attack`` users get it. The channel
#: horizon in tREFI is long enough for every attack to reach its
#: steady state and for ``none`` to flip.
CHANNEL_INTERVALS = 500
CHANNEL_TRACKERS = ("mint", "none", "para", "graphene")
CHANNEL_ATTACKS = ("rank-synchronized", "rank-rotation", "channel-stripe-decoy")
CHANNEL_SEEDS_PER_CELL = 4  # 48 runs, about 11 s a pass
#: The scaled Monte-Carlo regime of the MC cross-validation test.
MC_REGIME = dict(
    trh=40.0, intervals=64, max_act=8, num_rows=1024, refi_per_refw=64,
    scaled_timing=True,
)
MC_TRACKERS = (
    TrackerSpec.of("mint"),
    TrackerSpec.of("para"),
    TrackerSpec.of("pride"),
    TrackerSpec.of("mint", dmq=True, dmq_depth=4),
)
MC_ATTACKS = (AttackSpec.of("double-sided"), AttackSpec.of("many-sided", sides=8))
MC_SEEDS_PER_CELL = 5  # 40 estimates of 28 windows, about 9 s a pass
MC_WINDOWS = 28
EXP_TRH = (1000.0, PAPER_TRH, 3000.0)
EXP_INTERVALS = 64
EXP_EXTENSION_TRH = 2000.0
EXP_EXTENSION_ATTACKS = (AttackSpec.of("single-sided"), AttackSpec.of("double-sided"))
#: The query mix is unweighted, because no record of real service
#: use exists to weight it by: before and again after the mid-run
#: commit, every request kind is sent once per distinct target and
#: format, and each of those requests once more so that the cache
#: sees repeats. Targets: every point of the store, every tracker and
#: attack sweep filter, the unfiltered sweep and the status view. The
#: seed picks only the order.
EXP_FORMATS = ("json", "csv")


@dataclass
class Record:
    """One operation's outcome."""

    label: str
    problem: str | None = None
    #: Digest of the simulated result (None for non-simulating ops).
    digest: str | None = None
    #: Host seconds of the op, when it is a sample of the op latency.
    latency: float | None = None
    #: Host seconds and work counted toward the throughput metrics.
    sim_seconds: float = 0.0
    acts: int = 0
    results: int = 0
    #: perf_counter at the op's start and end, for the host's speed.
    started: float | None = None
    ended: float | None = None
    extra: dict = field(default_factory=dict)


class Context:
    """What a pass needs from the run: the tracer, when tracing, and
    the host-speed sampler (benchstats.HostSpeed), when timing."""

    def __init__(self, tracer=None, scratch: Path | None = None,
                 host=None) -> None:
        self.tracer = tracer
        self.scratch = scratch
        self.host = host
        self.passes = 0

    def tick(self) -> None:
        """Called between ops: samples the host's speed when due."""
        if self.host is not None:
            with self.paused():
                self.host.tick()

    def request(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.set_request(label)

    def span(self, name: str, ambient: bool = False):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, ambient)

    def paused(self):
        return nullcontext() if self.tracer is None else self.tracer.paused()

    def add(self, counter: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.add(counter, value)


def timed_op(
    ctx: Context,
    label: str,
    request: str,
    call: Callable[[], Any],
    check: Callable[[Any, float], Record],
) -> Record:
    """Run ``call`` as one timed operation attributed to ``request``,
    then ``check`` it untimed and untraced."""
    ctx.tick()
    ctx.request(request)
    started = time.perf_counter()
    try:
        value = call()
    except Exception as error:  # an op that raises counts as failed
        return Record(label, problem=f"raised {type(error).__name__}: {error}")
    ended = time.perf_counter()
    with ctx.paused():
        try:
            record = check(value, ended - started)
        except Exception as error:
            return Record(
                label, problem=f"check raised {type(error).__name__}: {error}"
            )
    record.started, record.ended = started, ended
    return record


def count_acts(trace) -> int:
    """Demand ACTs in a built attack schedule of any scope."""
    per_rank = getattr(trace, "per_rank", None)
    if per_rank is not None:
        return sum(count_acts(rank) for rank in per_rank.values())
    total_acts = getattr(trace, "total_acts", None)
    if total_acts is not None:
        return total_acts
    return sum(len(interval.acts) for interval in trace)


def _seeds(workload: str, seed: int):
    rng = random.Random(f"perfbench/{workload}/{seed}")
    while True:
        yield rng.randrange(2**31)


# ---------------------------------------------------------------------
class SessionWorkload:
    """Single ``Session.run`` calls: ``paper-scenarios`` and
    ``channel-fused``."""

    def __init__(self, name: str, scenarios: list[Scenario]) -> None:
        self.name = name
        self.ops = [
            (f"{s.tracker.label}/{s.attack.name}#{i}", s.fingerprint(), s)
            for i, s in enumerate(scenarios)
        ]

    def warmup(self) -> None:
        Session(self.ops[0][2]).run()

    def run_pass(self, ctx: Context) -> list[Record]:
        records = []
        for label, request, scenario in self.ops:

            def check(result, seconds, label=label, scenario=scenario):
                return Record(
                    label,
                    problem=paper_invariant(scenario, result.failed),
                    digest=digest(result.to_payload()),
                    latency=seconds,
                    sim_seconds=seconds,
                    acts=result.demand_acts,
                    results=1,
                )

            records.append(timed_op(
                ctx, label, request, lambda s=scenario: Session(s).run(), check
            ))
        return records


def paper_invariant(scenario: Scenario, failed: bool) -> str | None:
    """The paper's claims that hold at any seed at paper TRH: MINT
    never flips under single- or double-sided hammering, and an
    unprotected bank always flips under double-sided hammering."""
    if scenario.trh != PAPER_TRH or scenario.is_channel:
        return None
    name, attack = scenario.tracker.label, scenario.attack.name
    if name == "mint" and attack in ("single-sided", "double-sided") and failed:
        return "MINT flipped under a classic attack at paper TRH"
    if name == "none" and attack == "double-sided" and not failed:
        return "no tracker did not flip under double-sided hammering"
    return None


def paper_scenarios(seed: int, reference: bool) -> SessionWorkload:
    seeds = _seeds("paper-scenarios", seed)
    return SessionWorkload("paper-scenarios", [
        Scenario(
            tracker=tracker, attack=attack, trh=PAPER_TRH, seed=next(seeds),
            vectorized=False if reference else None,
        )
        for tracker in available_trackers()
        for attack in CLASSIC_ATTACKS
    ])


def channel_fused(seed: int, reference: bool) -> SessionWorkload:
    seeds = _seeds("channel-fused", seed)
    return SessionWorkload("channel-fused", [
        Scenario(
            tracker=tracker, attack=attack, trh=PAPER_TRH,
            intervals=CHANNEL_INTERVALS, num_ranks=4, num_banks=8,
            seed=next(seeds), vectorized=False if reference else None,
        )
        for _copy in range(CHANNEL_SEEDS_PER_CELL)
        for tracker in CHANNEL_TRACKERS
        for attack in CHANNEL_ATTACKS
    ])


# ---------------------------------------------------------------------
class MonteCarloWorkload:
    """``Session.run_many`` estimates: ``mc-windows``."""

    name = "mc-windows"

    def __init__(self, seed: int, reference: bool) -> None:
        seeds = _seeds(self.name, seed)
        self.ops = []
        for tracker in MC_TRACKERS:
            for attack in MC_ATTACKS:
                for _copy in range(MC_SEEDS_PER_CELL):
                    scenario = Scenario(
                        tracker=tracker, attack=attack, seed=next(seeds),
                        vectorized=False if reference else None, **MC_REGIME,
                    )
                    # These attacks issue a fixed number of ACTs per
                    # window; only their placement is random.
                    acts = count_acts(scenario.build_trace(random.Random(0)))
                    label = f"{tracker.label}/{attack.name}"
                    self.ops.append((label, scenario.fingerprint(), scenario, acts))

    def warmup(self) -> None:
        Session(self.ops[0][2]).run_many(2, n_workers=1)

    def run_pass(self, ctx: Context) -> list[Record]:
        records = []
        for label, request, scenario, acts in self.ops:

            def check(estimate, seconds, label=label, acts=acts):
                problem = None
                if estimate.windows != MC_WINDOWS:
                    problem = f"ran {estimate.windows} windows"
                return Record(
                    label, problem=problem,
                    digest=digest(estimate.to_payload()),
                    latency=seconds, sim_seconds=seconds,
                    acts=MC_WINDOWS * acts, results=MC_WINDOWS,
                )

            records.append(timed_op(
                ctx, label, f"mc:{request}",
                lambda s=scenario: Session(s).run_many(MC_WINDOWS, n_workers=1),
                check,
            ))
        return records


# ---------------------------------------------------------------------
def result_digest(results) -> str:
    """Digest of experiment results without their ``point`` payload,
    which carries the engine-path knobs; the fingerprint ``key`` is
    the point's identity."""
    return fold(
        digest({k: v for k, v in r.to_payload().items() if k != "point"})
        for r in results
    )


def _http_get(port: int, target: str) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET", target)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _csv_rows(rows: list[dict]) -> list[dict]:
    return [
        {c: "" if row.get(c) is None else str(row.get(c))
         for c in SWEEP_CSV_COLUMNS}
        for row in rows
    ]


class ExpServiceWorkload:
    """Grid writes, a cached re-run and HTTP reads: ``exp-service``.

    One pass is one round on a fresh store: ``run_grid`` cold, the same
    grid again on a reopened store, then the query mix against
    ``make_server`` with an extension grid committed between the two
    halves of the query mix by a second store handle, as a concurrent
    ``repro exp run`` would.
    """

    name = "exp-service"

    def __init__(self, seed: int, reference: bool) -> None:
        rng = random.Random(f"perfbench/{self.name}/{seed}")
        self.base_seed = rng.randrange(2**31)
        vectorized = False if reference else None
        self.grid = ExperimentGrid(
            trackers=[TrackerSpec.of(name) for name in available_trackers()],
            attacks=list(CLASSIC_ATTACKS),
            configs=[
                PointConfig(trh=trh, intervals=EXP_INTERVALS,
                            vectorized=vectorized)
                for trh in EXP_TRH
            ],
        )
        self.extension = ExperimentGrid(
            trackers=[TrackerSpec.of(name) for name in available_trackers()],
            attacks=list(EXP_EXTENSION_ATTACKS),
            configs=[PointConfig(trh=EXP_EXTENSION_TRH,
                                 intervals=EXP_INTERVALS,
                                 vectorized=vectorized)],
        )
        keys = [p.fingerprint(self.base_seed) for p in self.grid.points()]
        extension_keys = [
            p.fingerprint(self.base_seed) for p in self.extension.points()
        ]
        self.queries = []
        for points in (keys, keys + extension_keys):
            half = [("status", "json", None, None)]
            for fmt in EXP_FORMATS:
                half.append(("sweep", fmt, None, None))
                half += [("sweep", fmt, "tracker", spec.label)
                         for spec in self.grid.trackers]
                half += [("sweep", fmt, "attack", spec.name)
                         for spec in self.grid.attacks]
                half += [("point", fmt, "point", key) for key in points]
            half = [self._query(*request) for request in half] * 2
            rng.shuffle(half)
            self.queries.extend(half)
        #: The extension grid is committed between the two halves.
        self.commit_at = len(self.queries) - len(half)

    @staticmethod
    def _query(kind, fmt, filter_by, target):
        """``(kind, target, params)`` of one request of the mix."""
        if kind == "status":
            return ("status", "/v1/status", {})
        if kind == "point":
            return ("point", f"/v1/point/{quote(target)}?format={fmt}",
                    {"key": target, "format": fmt})
        params = {filter_by: target} if filter_by else {}
        params["format"] = fmt
        return ("sweep", f"/v1/sweep?{urlencode(params)}", params)

    def warmup(self) -> None:
        exp.run_grid(
            ExperimentGrid(
                trackers=self.grid.trackers[:1], attacks=self.grid.attacks[:1],
                configs=self.grid.configs[:1],
            ),
            base_seed=self.base_seed, n_workers=1,
        )

    def _grid_op(self, ctx, label, grid, path, expect_executed, extra_check):
        def call():
            return exp.run_grid(grid, base_seed=self.base_seed, n_workers=1,
                                store=ResultStore(path))

        def check(report, seconds):
            problem = None
            if report.executed != expect_executed:
                problem = (f"executed {report.executed} points, "
                           f"expected {expect_executed}")
            ctx.add("exp.execute_s", report.exec_seconds)
            ctx.add("exp.commit_s", report.wall_seconds - report.exec_seconds)
            record = Record(label, problem=problem)
            extra_check(report, seconds, record)
            return record

        return timed_op(ctx, label, f"{label}:{ctx.passes}", call, check)

    def run_pass(self, ctx: Context) -> list[Record]:
        round_dir = ctx.scratch / f"round-{ctx.passes}"
        round_dir.mkdir(parents=True)
        path = round_dir / "store.json"
        records: list[Record] = []
        try:
            self._round(ctx, path, records)
        finally:
            shutil.rmtree(round_dir, ignore_errors=True)
        return records

    def _round(self, ctx: Context, path: Path, records: list[Record]) -> None:
        cold: dict = {}

        def cold_check(report, seconds, record):
            record.digest = cold["digest"] = result_digest(report.results)
            record.sim_seconds = seconds
            record.results = report.executed
            record.acts = sum(r.metrics["demand_acts"] for r in report.results)

        def warm_check(report, seconds, record):
            if result_digest(report.results) != cold.get("digest"):
                record.problem = "warm re-run returned other results"
            record.extra["grid_warm_s"] = seconds

        def extension_check(report, seconds, record):
            record.digest = result_digest(report.results)

        records.append(self._grid_op(
            ctx, "grid-cold", self.grid, path, len(self.grid), cold_check))
        records.append(self._grid_op(
            ctx, "grid-warm", self.grid, path, 0, warm_check))

        with ctx.paused():
            api = QueryAPI(ResultStore(path))
            checker = QueryAPI(ResultStore(path))
            server = make_server(api)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            for index, (kind, target, params) in enumerate(self.queries):
                if index == self.commit_at:
                    records.append(self._grid_op(
                        ctx, "grid-extend", self.extension, path,
                        len(self.extension), extension_check))
                ctx.tick()
                ctx.request(f"http:{ctx.passes}:{index}")
                started = time.perf_counter()
                try:
                    with ctx.span("serve.http", ambient=True):
                        status, body = _http_get(port, target)
                except OSError as error:
                    records.append(Record(target, problem=f"{error}"))
                    continue
                ended = time.perf_counter()
                with ctx.paused():
                    problem = self._check_response(
                        api, checker, kind, params, status, body)
                records.append(Record(
                    target, problem=problem, latency=ended - started,
                    started=started, ended=ended))
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=30)
        ctx.add("query.hits", api.hits)
        ctx.add("query.misses", api.misses)

    @staticmethod
    def _check_response(api, checker, kind, params, status, body) -> str | None:
        """The response must be a 200 whose body equals the direct
        ``QueryAPI`` answer."""
        if status != 200:
            return f"HTTP {status}"
        fmt = params.get("format", "json")
        if kind == "status":
            expected: Any = api.status()
        elif kind == "point":
            result = checker.point(params["key"])
            if result is None:
                return "point missing from the store"
            expected = (_csv_rows(sweep_csv_rows([result])) if fmt == "csv"
                        else result.to_payload())
        else:
            failed = params.get("failed")
            args = (params.get("tracker"), params.get("attack"),
                    None if failed is None else failed == "true")
            expected = (_csv_rows(checker.sweep_csv(*args)) if fmt == "csv"
                        else {"results": checker.sweep_payloads(*args)})
        text = body.decode("utf-8")
        got = (list(csv.DictReader(io.StringIO(text))) if fmt == "csv"
               else json.loads(text))
        return None if got == expected else "body differs from QueryAPI"


BUILDERS = {
    "paper-scenarios": paper_scenarios,
    "channel-fused": channel_fused,
    "mc-windows": MonteCarloWorkload,
    "exp-service": ExpServiceWorkload,
}


def build(name: str, seed: int, reference: bool = False):
    """The workload ``name`` with inputs generated from ``seed``;
    ``reference`` pins every run to the scalar reference engine."""
    return BUILDERS[name](seed, reference)
