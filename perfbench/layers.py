"""Which public functions the traced run wraps, layer by layer.

Every span name is ``<layer>.<what>``; run.py turns the spans into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import repro.exp as exp
import repro.exp.runner as exp_runner
import repro.kernels as kernels
import repro.sim.montecarlo as montecarlo
from repro.dram.rowstate import DenseRowDisturbanceModel, RowDisturbanceModel
from repro.exp.query import QueryAPI
from repro.exp.result import ExperimentResult
from repro.exp.store import ResultStore
from repro.scenario import Scenario, Session
from repro.sim.engine import ChannelSimulator, RankSimulator
from repro.sim.results import ChannelSimResult, RankSimResult, SimResult
from repro.trackers.base import Tracker

from spans import Tracer

#: kernel_stats keys summed into pass counters.
KERNEL_STATS = {
    "steps": "engine.steps",
    "compiled_steps": "engine.steps_compiled",
    "fast_path_steps": "engine.steps_fast",
    "slow_path_steps": "engine.steps_slow",
    "plan_cache_hits": "engine.plan_hits",
    "plan_cache_misses": "engine.plan_misses",
    "compiled_bails": "engine.compiled_bails",
}


def _tracker_classes() -> list[type]:
    found, todo = [], [Tracker]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install(tracer: Tracer, traces: list) -> None:
    """Wrap every measured layer. Built attack traces are appended to
    ``traces`` so their ACTs can be counted outside the timed calls."""

    def kernel_stats(result) -> None:
        stats = getattr(result, "kernel_stats", None) or {}
        for key, counter in KERNEL_STATS.items():
            tracer.add(counter, stats.get(key, 0))

    def flushed(written) -> None:
        tracer.add("store.flush_bytes", written)

    tracer.wrap(Session, "run", "scenario.session")
    tracer.wrap(Session, "run_many", "scenario.session")
    tracer.wrap(Scenario, "build_tracker", "trackers.build")
    tracer.wrap(Scenario, "build_trace", "attacks.build_trace", traces.append)

    for cls in (RankSimulator, ChannelSimulator):
        tracer.wrap(cls, "__init__", "engine.construct")
    tracer.wrap(RankSimulator, "run", "engine.run")
    tracer.wrap(ChannelSimulator, "run", "engine.run", kernel_stats)
    tracer.wrap(RankSimulator, "collect", "engine.collect")

    original_get_march = kernels.get_march

    def get_march():
        march = original_get_march()
        return None if march is None else tracer.traced(march, "kernels.march")

    tracer.patch(kernels, "get_march", get_march)

    for cls in _tracker_classes():
        for attr in ("on_activate_batch", "on_refresh"):
            if attr in cls.__dict__:
                tracer.wrap(cls, attr, "trackers.dispatch")

    for cls in (RowDisturbanceModel, DenseRowDisturbanceModel):
        tracer.wrap(cls, "activate_many", "dram.activate")

    original_fork_map = montecarlo.fork_map

    def fork_map(fn, items, *args, **kwargs):
        return original_fork_map(
            tracer.traced(fn, "montecarlo.window"), items, *args, **kwargs
        )

    tracer.patch(montecarlo, "fork_map", fork_map)

    for cls in (SimResult, RankSimResult, ChannelSimResult, ExperimentResult):
        tracer.wrap(cls, "to_payload", "results.to_payload")

    run_grid = tracer.traced(exp_runner.run_grid, "exp.run_grid")
    tracer.patch(exp_runner, "run_grid", run_grid)
    tracer.patch(exp, "run_grid", run_grid)
    tracer.wrap(ResultStore, "__init__", "store.load")
    tracer.wrap(ResultStore, "reload_if_changed", "store.load")
    tracer.wrap(ResultStore, "flush", "store.flush", flushed)
    for attr in ("keys", "point", "sweep", "sweep_payloads", "sweep_csv",
                 "status"):
        tracer.wrap(QueryAPI, attr, "query.api")

