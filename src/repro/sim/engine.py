"""Event-level security simulator: channel → ranks → trackers → oracle.

:class:`RankSimulator` drives a DDR5 *rank* — ``num_banks``
independent banks behind one refresh schedule — through an attack
schedule: a materialized trace or a lazy
:class:`~repro.sim.trace.TraceStream`, consumed chunk by chunk either
way (streamed runs are bit-identical to materialized ones, at bounded
memory). :class:`ChannelSimulator` stacks ``num_ranks`` rank simulators
under one shared tREFI clock — the DDR5 *channel*, where a memory
controller interleaves activations across ranks sharing a command bus —
and reports a :class:`~repro.sim.results.ChannelSimResult` of per-rank
results.

Each bank owns its own tracker instance (in-DRAM trackers are per-bank
structures; the paper's storage numbers scale ×32 per rank) and its own
row-disturbance oracle. At each tREFI boundary the rank's
:class:`RefreshScheduler` decides whether its REF executes or is
postponed (DDR5 allows four), and every executed REF performs each
bank's rolling auto-refresh plus at most one tracker-directed
mitigation per bank.

There is one production engine and one reference:

* The *fused march* (:class:`_FusedChannelKernel`, the default) packs
  every bank of every simulated rank into one dense ``(unit, row)``
  array family, computes each tREFI's per-unique-row aggregation once
  for all of them, and dispatches it as one tracker batch per bank plus
  one packed disturbance scatter. Long runs of a replayed interval go
  through a compiled march (:mod:`repro.kernels`) when a provider is
  available. A rank run marches itself as a one-rank kernel; a channel
  run marches all its ranks through one kernel.
* The *reference engine* (``EngineConfig(vectorized=False)``) is the
  per-ACT dispatch over the sparse dict oracle. Every production run is
  pinned bit-identical to it.

:class:`RankSimulator` and :class:`ChannelSimulator` are the *engine*
entry points for live tracker objects; the way to *describe and launch*
a registry-describable evaluation is the declarative
:class:`repro.scenario.Scenario` / :class:`repro.scenario.Session`
facade, which builds the simulator from a serializable payload and
drives every other layer (CLI, experiment grids, Monte-Carlo, perf)
through the same object. A single-bank run is a ``num_banks=1`` rank
run. The rank simulator accepts bank-addressed
:class:`~repro.sim.trace.RankTrace` streams or row-only
:class:`~repro.sim.trace.Trace` streams (auto-lifted to bank 0), and
reports a :class:`~repro.sim.results.RankSimResult` carrying one
per-bank :class:`~repro.sim.results.SimResult` each plus rank-level
aggregates.

This is the machinery behind the paper's guaranteed-protection claims
(classic single/double-sided attacks bounded at M activations, §V-C),
the decoy blow-up under postponement (§VI-B), the rank-level MTTF
accounting (§VIII-B), and the Monte-Carlo validation of the analytical
MinTRH model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import groupby, islice
from typing import Callable, Sequence

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None  # type: ignore[assignment]

from ..cache import BoundedCache
from ..constants import CONCURRENT_BANKS
from ..core.dmq import DelayedMitigationQueue
from ..dram.device import DeviceConfig, DramDevice
from ..dram.refresh import RefreshScheduler
from ..dram.timing import DDR5Timing, DEFAULT_TIMING
from ..trackers.base import MitigationRequest, Tracker
from ..trackers.protrr import VictimRefreshRequest
from .results import ChannelSimResult, RankSimResult, SimResult
from .trace import (
    ChannelTrace,
    CycleStream,
    MaterializedStream,
    RankTrace,
    Trace,
    TraceStream,
    as_trace_stream,
    validate_rank_intervals,
)


@dataclass
class EngineConfig:
    """Knobs of the security simulation."""

    timing: DDR5Timing = DEFAULT_TIMING
    trh: float = 4800.0
    num_rows: int = 128 * 1024
    blast_radius: int = 1
    allow_postponement: bool = False
    max_postponed: int = 4
    refi_per_refw: int = 8192
    #: Enforce the per-interval activation budget of the timing model.
    validate_budget: bool = True
    #: Banks in the simulated rank (1 == the classic single-bank setup).
    num_banks: int = 1
    #: tFAW ceiling on banks sustaining full-rate ACTs concurrently;
    #: ``None`` means min(CONCURRENT_BANKS, num_banks).
    concurrent_banks: int | None = None
    #: Ranks in the simulated channel. ``num_banks`` is *per rank*; a
    #: value above 1 selects :class:`ChannelSimulator` (a
    #: :class:`RankSimulator` rejects multi-rank configs).
    num_ranks: int = 1
    #: Engine selection. ``None`` (auto) runs the fused march whenever
    #: NumPy is available; ``False`` selects the reference engine — the
    #: per-ACT dispatch over the sparse dict oracle — that every
    #: production run is pinned bit-identical to.
    vectorized: bool | None = None
    #: Compiled-tier selection under the fused march (see
    #: :mod:`repro.kernels`). ``"auto"`` marches steady-state step runs
    #: through the compiled provider (the on-demand C build) and falls
    #: back to the pure-NumPy march when none exists or a step does
    #: not qualify; ``"compiled"`` requires a provider (raises at
    #: construction when none is available, and rejects the reference
    #: engine, which has no compiled tier);
    #: ``"numpy"`` pins the pure-NumPy march. Excluded from scenario
    #: identity, like ``vectorized`` — every setting produces
    #: bit-identical results (pinned by the property suite).
    backend: str = "auto"


class RankSimulator:
    """Runs traces against one tracker instance per bank of a rank.

    Parameters
    ----------
    tracker_factory:
        Called once per bank (with the bank index) to build that bank's
        tracker. Each bank must get an independent instance — sharing
        one tracker across banks would be both unrealistic and insecure.
        :func:`repro.trackers.registry.bank_tracker_factory` builds a
        suitable factory from a registry name plus a base seed.
    config:
        Engine knobs (:class:`EngineConfig`); ``num_banks`` selects the
        rank width.
    """

    def __init__(
        self,
        tracker_factory: Callable[[int], Tracker],
        config: EngineConfig | None = None,
    ) -> None:
        c = config or EngineConfig()
        if c.num_banks < 1:
            raise ValueError("num_banks must be >= 1")
        if c.num_ranks != 1:
            raise ValueError(
                "RankSimulator drives exactly one rank; a config with "
                f"num_ranks={c.num_ranks} belongs to ChannelSimulator"
            )
        self.config = c
        self.num_banks = c.num_banks
        self.concurrent_banks = min(
            CONCURRENT_BANKS if c.concurrent_banks is None else c.concurrent_banks,
            c.num_banks,
        )
        if c.vectorized and np is None:
            raise RuntimeError("EngineConfig.vectorized=True requires numpy")
        if c.backend not in ("auto", "compiled", "numpy"):
            raise ValueError(
                "EngineConfig.backend must be 'auto', 'compiled', or "
                f"'numpy', not {c.backend!r}"
            )
        #: Resolved engine choice: the fused march unless disabled or no
        #: NumPy; otherwise the reference engine.
        self.vectorized = (
            c.vectorized if c.vectorized is not None else np is not None
        )
        if c.backend == "compiled":
            if not self.vectorized:
                raise ValueError(
                    "EngineConfig.backend='compiled' runs under the fused "
                    "march, but vectorized=False selects the reference "
                    "engine; use backend='auto' or drop vectorized=False"
                )
            # Fail loudly at construction when no compiled provider
            # exists — the whole point of pinning "compiled" over "auto".
            from ..kernels import require_compiled

            require_compiled()
        self.device = DramDevice(
            DeviceConfig(
                timing=c.timing,
                num_banks=c.num_banks,
                rows_per_bank=c.num_rows,
                trh=c.trh,
                blast_radius=c.blast_radius,
                refi_per_refw=c.refi_per_refw,
                # The fused march hands each bank oracle a view into its
                # packed arrays, so it needs dense storage; the reference
                # engine is pinned to the sparse dict oracle.
                backend="dense" if self.vectorized else "sparse",
            )
        )
        self.trackers = [tracker_factory(bank) for bank in range(c.num_banks)]
        self.scheduler = RefreshScheduler(max_postponed=c.max_postponed)
        # Per-bank activations a row received since it was last the
        # *target* of a mitigation; the unmitigated-run metric (Table IV).
        self._bank_since = [dict() for _ in range(c.num_banks)]
        self._bank_peak = [dict() for _ in range(c.num_banks)]
        self._counts: Counter[int] = Counter()
        self.bank_mitigations = [0] * c.num_banks
        self.bank_transitive_mitigations = [0] * c.num_banks
        self.bank_demand_acts = [0] * c.num_banks
        self.intervals = 0
        self._consumed = False

    # ------------------------------------------------------------------
    def run(self, trace: Trace | RankTrace | TraceStream) -> RankSimResult:
        """Execute ``trace`` to completion and report the outcome.

        ``trace`` may be bank-addressed (:class:`RankTrace`), row-only
        (:class:`Trace`, lifted onto bank 0), or a lazily produced
        :class:`~repro.sim.trace.TraceStream` (consumed chunk by chunk,
        never materialized — memory stays bounded no matter the
        horizon). Materialized traces are budget-validated upfront as
        always; a stream declares its act budget for the same fail-fast
        check and is then validated chunk by chunk under identical
        rules, and the per-interval work is the same either way, so
        streamed and materialized runs of one schedule are
        bit-identical (pinned by the stream-equivalence tests).

        The rank marches itself as a one-rank fused kernel (the
        default, see :attr:`EngineConfig.vectorized`) and the result
        carries the kernel's path telemetry as ``kernel_stats``; the
        reference engine is the per-ACT dispatch it is pinned against.

        A simulator instance runs exactly one schedule: trackers, the
        oracle, and every counter accumulate monotonically, so a second
        ``run()`` on the same instance would silently mix windows.
        Reuse raises ``RuntimeError``; build a fresh simulator (or
        ``Session``) per run.
        """
        self._guard_reuse()
        stream = as_trace_stream(trace)
        prevalidated = self._prevalidate(stream)
        intervals = self._intervals(stream, validate=not prevalidated)
        if self.vectorized:
            stats = _FusedChannelKernel([self], self.config).march(
                [intervals]
            )
        else:
            stats = None
            self._feed(intervals)
        result = self.collect(stream.name)
        # Diagnostic side channel, deliberately not a dataclass field:
        # results stay bit-identical across engines.
        result.kernel_stats = stats
        return result

    def _prevalidate(self, stream: TraceStream, label: str = "") -> bool:
        """Validate what ``stream`` allows upfront, before any interval
        executes; True when that covered the whole schedule.

        A materialized schedule keeps the validate-before-execute
        contract. A cycle produces only its pattern's interval objects,
        so validating the (truncated) pattern once is equivalent to
        checking every produced interval, and the first offence sits at
        its pattern index, so the message matches the chunk-wise check
        too. Any other stream is checked chunk by chunk as produced.
        """
        c = self.config
        if not c.validate_budget:
            return True
        budget = stream.act_budget
        if budget is not None and budget > c.timing.max_act:
            raise ValueError(
                f"{label}stream {stream.name!r} declares up to {budget} "
                f"ACTs on one bank per tREFI, but at most "
                f"{c.timing.max_act} fit"
            )
        if isinstance(stream, MaterializedStream):
            stream.trace.validate(
                c.timing.max_act,
                num_banks=self.num_banks,
                concurrent_banks=self.concurrent_banks,
            )
        elif isinstance(stream, CycleStream):
            self._validate(stream.pattern[: stream.count])
        else:
            return False
        return True

    def _intervals(self, stream: TraceStream, validate: bool):
        """Flatten ``stream`` into intervals, budget-validating each
        chunk as it is produced when ``validate`` is set."""
        offset = 0
        for chunk in stream.chunks():
            if validate:
                self._validate(chunk, start=offset)
            offset += len(chunk)
            yield from chunk

    def _validate(self, intervals, start: int = 0) -> None:
        validate_rank_intervals(
            intervals,
            self.config.timing.max_act,
            num_banks=self.num_banks,
            concurrent_banks=self.concurrent_banks,
            start=start,
        )

    def _guard_reuse(self) -> None:
        if self._consumed:
            raise RuntimeError(
                "this simulator has already consumed a schedule; "
                "trackers, oracle state, and counters accumulate across "
                "runs, so reusing it would silently mix windows — build "
                "a fresh simulator (or Session) per run"
            )
        self._consumed = True

    def feed(self, intervals: Sequence["RankInterval"]) -> None:
        """Advance the rank through ``intervals`` (one stream chunk).

        Incremental: the interval clock continues from where the last
        chunk left off, and budget validation (when configured) reports
        stream-global interval indices. Feeding runs the reference
        per-ACT dispatch (bit-identical to :meth:`run`).
        :meth:`collect` reports the state accumulated so far. Adaptive
        attacks that react to mitigations feed one round at a time
        (:func:`repro.attacks.feinting.run_feinting`).
        """
        if self.config.validate_budget:
            self._validate(intervals, start=self.intervals)
        self._feed(intervals)

    def _feed(self, intervals) -> None:
        """The reference hot loop: absorb intervals, tick the scheduler."""
        self._consumed = True
        c = self.config
        absorb_acts = self._absorb_acts
        scheduler_tick = self.scheduler.tick
        t_refi_ns = c.timing.t_refi_ns
        allow_postponement = c.allow_postponement
        count = self.intervals
        for interval in intervals:
            count += 1
            time_ns = count * t_refi_ns
            for bank, acts in interval.per_bank:
                absorb_acts(bank, acts, time_ns)
            want_postpone = interval.postpone and allow_postponement
            event = scheduler_tick(want_postpone=want_postpone)
            if event is not None:
                for _ in range(event.count):
                    self._refresh(time_ns)
        self.intervals = count

    def collect(self, trace_name: str) -> RankSimResult:
        """Report the state accumulated so far as a
        :class:`~repro.sim.results.RankSimResult` (what :meth:`run`
        returns; also called per rank by :class:`ChannelSimulator`)."""
        per_bank = []
        refreshes = self.scheduler.total_refreshes
        for bank in range(self.num_banks):
            model = self.device.banks[bank]
            tracker = self.trackers[bank]
            max_disturbance, most_disturbed_row = (
                model.disturbance_summary()
            )
            per_bank.append(
                SimResult(
                    tracker=tracker.name,
                    trace=trace_name,
                    intervals=self.intervals,
                    demand_acts=self.bank_demand_acts[bank],
                    refreshes=refreshes,
                    mitigations=self.bank_mitigations[bank],
                    transitive_mitigations=self.bank_transitive_mitigations[bank],
                    pseudo_mitigations=tracker.pseudo_mitigations,
                    flips=list(model.flips),
                    max_disturbance=max_disturbance,
                    most_disturbed_row=most_disturbed_row,
                    max_unmitigated=dict(self._bank_peak[bank]),
                )
            )
        return RankSimResult(
            trace=trace_name,
            intervals=self.intervals,
            refreshes=refreshes,
            per_bank=per_bank,
        )

    # ------------------------------------------------------------------
    def _absorb_acts(
        self, bank: int, acts: tuple[int, ...], time_ns: float
    ) -> None:
        """Feed one bank's share of an interval to tracker, oracle,
        counters.

        The single source of the per-ACT bookkeeping. No mitigation
        lands mid-interval, so the oracle and the unmitigated-run
        counters absorb the whole batch in one pass each.
        """
        self.bank_demand_acts[bank] += len(acts)
        tracker_on_activate = self.trackers[bank].on_activate
        for row in acts:
            tracker_on_activate(row)
        self.device.activate_many(bank, acts, time_ns)
        since = self._bank_since[bank]
        peak = self._bank_peak[bank]
        counts = self._counts
        counts.clear()
        counts.update(acts)
        for row, count in counts.items():
            total = since.get(row, 0) + count
            since[row] = total
            if total > peak.get(row, 0):
                peak[row] = total

    def _refresh(self, time_ns: float) -> None:
        """One rank-level REF: every bank sweeps its auto-refresh slice
        and may land one tracker-directed mitigation."""
        for bank in range(self.num_banks):
            self.device.auto_refresh(bank, time_ns)
            for request in self.trackers[bank].on_refresh():
                self._apply(bank, request, time_ns)

    def _apply(
        self, bank: int, request: MitigationRequest, time_ns: float
    ) -> None:
        self.bank_mitigations[bank] += 1
        if request.distance > 1:
            self.bank_transitive_mitigations[bank] += 1
        since = self._bank_since[bank]
        if isinstance(request, VictimRefreshRequest):
            # Victim-centric mitigation (ProTRR): refresh the named row;
            # the refresh itself disturbs that row's neighbours.
            refreshed = self.device.victim_refresh(bank, request.row, time_ns)
        else:
            refreshed = self.device.mitigate(
                bank, request.row, request.distance, time_ns
            )
            since[request.row] = 0
        tracker = self.trackers[bank]
        for victim in refreshed:
            since[victim] = 0
            if tracker.observes_mitigations:
                tracker.on_mitigation_activate(victim)

    # ------------------------------------------------------------------
    @property
    def any_flip(self) -> bool:
        return self.device.any_flip


#: Private miss sentinel for the plan memos (a cached value can never
#: be this object, so hits and misses are always distinguishable).
_CACHE_MISS = object()


class _FusedChannelKernel:
    """The fused march: the production engine for ranks and channels.

    Marches one or more :class:`RankSimulator`\\ s interval-by-interval
    under a shared tREFI clock through a single packed ``(unit, row)``
    array family — ``unit = rank * num_banks + bank`` — instead of one
    Python dispatch per (rank, bank) per tREFI. A rank run is a
    one-rank kernel; a channel run puts every rank in one kernel.

    * Each bank's :class:`~repro.dram.rowstate.DenseRowDisturbanceModel`
      *adopts* a row view into the packed arrays (``adopt_storage``), so
      packed whole-kernel stores and every per-bank operation
      (mitigate, exact replay, queries, ``collect``) read and write the
      same memory — bit-identity holds by construction, not by
      mirroring.
    * Per step, the per-unique-row aggregation is computed once across
      every unit (one ``np.unique`` over a packed rank×bank×row key) and
      dispatched three ways: per-unit tracker batch updates, the
      unmitigated-run counters, and ONE packed disturbance scatter
      (reset + bincount + fancy-index store) with a packed flip
      pre-check.
    * REF rounds fuse the rolling auto-refresh into one 2-D slice store
      across every refreshing rank, and the common mitigation shape
      (a single distance-1 request per bank) into one packed
      victims-reset + neighbour-bump scatter.

    Anything order-sensitive *within* a bank falls back to the per-bank
    code paths operating on the very same adopted arrays: intervals
    with aggressor/victim adjacency or new flips replay through
    ``activate_many`` (which replays exactly), and victim-centric /
    transitive / multi-request REFs go through :meth:`_apply_slow`, the
    packed-counter twin of ``RankSimulator._apply``. The packed scatters
    are radius-1 math, so under any other ``blast_radius`` every unit
    replays exactly, every REF goes through :meth:`_apply_slow`, and the
    compiled tier stays off. Reordering *across* units is unobservable
    — ranks and banks are independent by construction, and every fused
    sum is integer-valued float64 far below 2**53, so addition order
    cannot change a bit.

    Per-step plans (aggregations, packed keys, tracker dispatch tuples)
    are memoized per distinct step in a bounded LRU cache keyed by the
    step's interval-object identities — attack traces replay a few
    shared interval objects for thousands of tREFIs, so the Python plan
    cost is paid once per distinct step.

    The kernel holds its simulators but nothing holds the kernel: it
    lives for one :meth:`march`, so a finished simulator is freed by
    reference counting alone.
    """

    #: Plan-memo ceiling (LRU eviction keeps the hot shared-interval
    #: entries when a trace streams unboundedly many distinct steps).
    _PLAN_CACHE_LIMIT = 4096
    #: Shortest replay run handed to the compiled march, and the
    #: longest one marched in a single call.
    _min_compiled_run = 16
    _max_compiled_chunk = 4096

    def __init__(self, ranks: list[RankSimulator], config: EngineConfig) -> None:
        c = config
        self.ranks = ranks
        self.num_banks = c.num_banks
        self.num_ranks = len(ranks)
        self.num_rows = c.num_rows
        self.units = self.num_ranks * self.num_banks
        self.trh = float(c.trh)
        self.t_refi_ns = c.timing.t_refi_ns
        self.allow_postponement = c.allow_postponement
        #: Whether the radius-1 packed scatters apply (see class doc).
        self._radius1 = c.blast_radius == 1
        self.dist = np.zeros((self.units, self.num_rows), dtype=np.float64)
        self.peak = np.zeros((self.units, self.num_rows), dtype=np.float64)
        self.flipped = np.zeros((self.units, self.num_rows), dtype=bool)
        self.dist_flat = self.dist.reshape(-1)
        self.peak_flat = self.peak.reshape(-1)
        self.flipped_flat = self.flipped.reshape(-1)
        # Packed twins of the per-bank unmitigated-run counters
        # (``_bank_since``/``_bank_peak``): in-range rows live here and
        # update as one scatter per step; the rare out-of-range
        # activated rows stay in the rank dicts, and ``materialize``
        # merges both back into the dicts before ``collect``.
        self.since = np.zeros((self.units, self.num_rows), dtype=np.int64)
        self.speak = np.zeros((self.units, self.num_rows), dtype=np.int64)
        self.since_flat = self.since.reshape(-1)
        self.speak_flat = self.speak.reshape(-1)
        # Activated-row envelope, per unit: the packed unmitigated-run
        # counters (``since``/``speak``) are only ever written at
        # in-range *activated* rows — mitigations merely zero them — so
        # ``materialize`` can scan [lo, hi) instead of the whole row
        # space. (The disturbance arrays get no such envelope:
        # victim-refresh bumps chain arbitrarily far from the
        # activations.) Widened at plan build; empty (lo >= hi) until a
        # unit first activates.
        self._row_lo = [self.num_rows] * self.units
        self._row_hi = [0] * self.units
        for rank, sim in enumerate(ranks):
            for bank in range(self.num_banks):
                unit = rank * self.num_banks + bank
                sim.device.banks[bank].adopt_storage(
                    self.dist[unit], self.peak[unit], self.flipped[unit]
                )
        self._plan_cache = BoundedCache(self._PLAN_CACHE_LIMIT)
        # Per-size [1, 2, 1]-pattern bump vectors for the fused
        # mitigation scatter (each aggressor's two victim refreshes bump
        # a-2 once, a twice, a+2 once).
        self._bump_patterns: dict[int, "np.ndarray"] = {}
        self._all_units = np.arange(self.units, dtype=np.intp)
        self._unit_bases = self._all_units * self.num_rows
        # Offsets of every row a distance-1 mitigation touches, relative
        # to the aggressor: victims {a±1} then bump targets {a-2, a, a+2}.
        # One broadcast add against the packed aggressor keys yields all
        # five blocks at once; the blocks are then sliced as views.
        self._mit_offsets = np.array(
            [[-1], [1], [-2], [0], [2]], dtype=np.intp
        )
        # Packed per-unit mitigation tally. When no tracker observes
        # mitigation activations and every fused aggressor is interior,
        # the per-request bookkeeping sweep collapses to one increment
        # here; ``materialize`` folds it back into the per-rank
        # ``bank_mitigations`` lists (addition commutes with the direct
        # bumps from the slow paths).
        self.mitig = np.zeros(self.units, dtype=np.int64)
        self._any_observing = any(
            tracker.observes_mitigations
            for sim in ranks
            for tracker in sim.trackers
        )
        # Packed per-unit demand tally (same fold-at-materialize deal as
        # ``mitig``): one fancy increment per step replaces the per-unit
        # Python sweep over ``bank_demand_acts``.
        self.demand_acc = np.zeros(self.units, dtype=np.int64)
        # Pre-bound REF dispatch rows: (sim, bank, unit, on_refresh) per
        # unit, grouped by rank, so each REF round walks a prebuilt list
        # instead of re-binding tracker methods.
        self._ref_handlers = [
            [
                (
                    sim,
                    bank,
                    rank * self.num_banks + bank,
                    sim.trackers[bank].on_refresh,
                )
                for bank in range(self.num_banks)
            ]
            for rank, sim in enumerate(ranks)
        ]
        # Rolling auto-refresh bookkeeping, kept kernel-side: the slice
        # math is inlined per round and the device counters (untouched
        # during a fused run) are synced back in ``materialize``.
        dev = ranks[0].device
        self._refw = dev.config.refi_per_refw
        self._slice_rows = dev._rows_per_slice
        self._ref_counts = [sim.device._ref_counter[0] for sim in ranks]
        self.steps = 0
        # Kernel-path telemetry (exposed via ``stats()``): fused
        # fast-path steps vs order-sensitive slow-path steps vs steps
        # executed inside a compiled march, plus plan-cache traffic —
        # a workload silently degrading to 100% slow path is invisible
        # without these.
        self.fast_steps = 0
        self.slow_steps = 0
        self.compiled_steps = 0
        self.compiled_calls = 0
        self.compiled_bails = 0
        self.plan_hits = 0
        self.plan_misses = 0
        self._step_slow = False
        # Running upper bound on every packed disturbance cell, or None
        # after a write the fused paths cannot see (exact replays, slow
        # mitigations). The compiled march uses it for flip safety: a
        # step runs compiled only while bound + step_gain < trh, so the
        # compiled loop needs no per-write flip checks.
        self._bound = 0.0
        # Compiled-tier state (see repro.kernels). The march function
        # is resolved once; a run/plan that cannot lower disables the
        # tier for this kernel (sticky — the Python paths then own the
        # arrays and the bound may go stale near the threshold).
        self._march_fn = None
        self._provider = None
        if c.backend != "numpy" and self._radius1:
            from .. import kernels

            self._march_fn = kernels.get_march()
            self._provider = kernels.provider()
        self._compiled_off = self._march_fn is None
        self._lowered_cache = BoundedCache(self._PLAN_CACHE_LIMIT)
        self._cstate = None

    # ------------------------------------------------------------------
    def march(self, iterators: list) -> dict:
        """Drain one interval iterator per rank in interval lockstep,
        fold the packed state back into the simulators
        (:meth:`materialize`), and return the path telemetry
        (:meth:`stats`).

        Every still-active rank advances by exactly one interval per
        step, so the shared tREFI clock is common to all active ranks;
        a rank drops out when its schedule ends (ranks may have
        different horizons).

        Consecutive steps replaying the same interval objects — the
        dominant case, attack traces reuse a few shared intervals for
        thousands of tREFIs — accumulate into *runs* and flush
        together, so the compiled tier can execute a whole run in one
        call instead of one Python dispatch per tREFI. Run detection is
        per rank via ``itertools.groupby`` keyed on object identity, so
        a thousand-step replay costs one C-speed group consumption, not
        a thousand Python-loop iterations; the composed channel run is
        the minimum of the active ranks' run lengths. Lookahead per
        rank never exceeds ``_max_compiled_chunk`` intervals (matching
        the accumulate-then-flush window the per-step detector had).
        """
        self._run_state = {
            rank: [groupby(it, key=id), None]
            for rank, it in enumerate(iterators)
        }
        current: dict[int, list] = {}
        for rank in range(len(iterators)):
            run = self._next_run(rank)
            if run is not None:
                current[rank] = [run[0], run[1]]
        while current:
            ranks = sorted(current)
            step = [(rank, current[rank][0]) for rank in ranks]
            n = min(current[rank][1] for rank in ranks)
            key = tuple((rank, id(interval)) for rank, interval in step)
            self._flush(step, key, n)
            for rank in ranks:
                state = current[rank]
                state[1] -= n
                if state[1] == 0:
                    run = self._next_run(rank)
                    if run is None:
                        del current[rank]
                    else:
                        state[0], state[1] = run
        self.materialize()
        return self.stats()

    def _next_run(self, rank: int):
        """Pull one rank's next ``(interval, count)`` replay run.

        A run is a maximal stretch of consecutive identical interval
        objects, capped at ``_max_compiled_chunk``; a capped group's
        remainder carries over to the next pull. Identity grouping is
        sound against id reuse because ``groupby`` keeps the previous
        item alive while keying the next one, and the returned interval
        pins its whole run (every grouped item IS that object).
        """
        grouper, group = self._run_state[rank]
        cap = self._max_compiled_chunk
        while True:
            if group is not None:
                first = next(group, _CACHE_MISS)
                if first is not _CACHE_MISS:
                    n = 1 + sum(1 for _ in islice(group, cap - 1))
                    self._run_state[rank][1] = group if n == cap else None
                    return first, n
                self._run_state[rank][1] = None
            pulled = next(grouper, _CACHE_MISS)
            if pulled is _CACHE_MISS:
                return None
            group = pulled[1]

    def _flush(self, step: list, key: tuple, n: int) -> None:
        """Execute ``n`` identical consecutive steps.

        Long enough runs go through the compiled march when the plan
        qualifies; whatever it does not execute (no provider, an
        unqualified plan, a flip-safety bail) replays through the
        per-step fused path below.
        """
        plan = self._plan_cache.get(key, _CACHE_MISS)
        if plan is _CACHE_MISS:
            plan = self._build_plan(step)
            self._plan_cache.put(key, plan)
            self.plan_misses += 1
            self.plan_hits += n - 1
        else:
            self.plan_hits += n
        done = 0
        if not self._compiled_off and n >= self._min_compiled_run:
            done = self._compiled_march(step, plan, n)
        for _ in range(n - done):
            self._step(step, plan)

    def _step(self, step: list, plan: tuple | None = None) -> None:
        """One shared tREFI: absorb every rank's interval, tick REFs."""
        self.steps += 1
        time_ns = self.steps * self.t_refi_ns
        self._step_slow = False
        if plan is None:
            key = tuple((rank, id(interval)) for rank, interval in step)
            plan = self._plan_cache.get(key, _CACHE_MISS)
            if plan is _CACHE_MISS:
                plan = self._build_plan(step)
                self._plan_cache.put(key, plan)
        (
            absorb,
            exact_units,
            scatter_units,
            reset_keys,
            victims,
            delta,
            since_keys,
            since_counts,
            overflow,
            demand_keys,
            demand_counts,
        ) = plan[:11]
        # Trackers, one pre-bound dispatch per active unit (no
        # mitigation lands mid-interval, so batch order across units is
        # unobservable).
        for batch, acts, tracker_agg in absorb:
            batch(acts, tracker_agg)
        if demand_keys.size:
            self.demand_acc[demand_keys] += demand_counts
        # Unmitigated-run counters: one packed scatter for every
        # in-range activated row channel-wide (keys are unique per unit
        # and cannot collide across units), dict fallback for the rare
        # out-of-range rows.
        if since_keys.size:
            since_flat = self.since_flat
            totals = since_flat[since_keys] + since_counts
            since_flat[since_keys] = totals
            speak_flat = self.speak_flat
            speak_flat[since_keys] = np.maximum(speak_flat[since_keys], totals)
        for since, peak, items in overflow:
            for row, count in items:
                total = since.get(row, 0) + count
                since[row] = total
                if total > peak.get(row, 0):
                    peak[row] = total
        # Units whose activated rows fall within each other's blast
        # radius replay through their bank's exact path (same adopted
        # arrays, per-bank flip/order semantics preserved).
        if exact_units:
            self._step_slow = True
            self._bound = None
            for model, acts, agg in exact_units:
                model.activate_many(acts, time_ns, agg=agg)
        # The fused scatter: one whole-channel read + flip pre-check +
        # reset + write + peak max over packed unit*num_rows+row keys.
        if victims.size:
            dist_flat = self.dist_flat
            old = dist_flat[victims]
            new = old + delta
            mx = new.max()
            if mx >= self.trh and bool(
                ((new >= self.trh) & ~self.flipped_flat[victims]).any()
            ):
                # Rare: some unit crosses TRH this interval. Replay each
                # scatter-eligible unit through its own bank path, which
                # records per-crossing flip events in act order.
                self._step_slow = True
                self._bound = None
                for model, acts, agg in scatter_units:
                    model.activate_many(acts, time_ns, agg=agg)
            else:
                dist_flat[reset_keys] = 0.0
                dist_flat[victims] = new
                peak_flat = self.peak_flat
                peak_flat[victims] = np.maximum(peak_flat[victims], new)
                if self._bound is not None and mx > self._bound:
                    self._bound = float(mx)
        elif reset_keys.size:
            self.dist_flat[reset_keys] = 0.0
        # Shared tREFI boundary: every active rank's scheduler ticks.
        ranks = self.ranks
        allow = self.allow_postponement
        ref_ranks = []
        counts = []
        mx = 0
        for rank, interval in step:
            sim = ranks[rank]
            sim.intervals += 1
            event = sim.scheduler.tick(
                want_postpone=interval.postpone and allow
            )
            if event is not None:
                ref_ranks.append(rank)
                c = event.count
                counts.append(c)
                if c > mx:
                    mx = c
        if mx == 1:
            # Common shape: one REF on every refreshing rank.
            self._fused_refresh(ref_ranks, time_ns)
        elif mx:
            for i in range(mx):
                self._fused_refresh(
                    [
                        rank
                        for rank, count in zip(ref_ranks, counts)
                        if count > i
                    ],
                    time_ns,
                )
        if self._step_slow:
            self.slow_steps += 1
        else:
            self.fast_steps += 1

    def _build_plan(self, step: list) -> tuple:
        """Aggregate one channel step into packed dispatch plans.

        Returns ``(absorb, exact_units, scatter_units, reset_keys,
        victims_unique, delta, since_keys, since_counts, overflow,
        demand_keys, demand_counts, step)``; the trailing ``step``
        reference pins the keyed interval objects so their ids cannot
        be recycled while the memo entry lives.
        """
        B = self.num_banks
        rows_n = self.num_rows
        ranks = self.ranks
        unit_cols = []
        row_cols = []
        acts_by_unit: dict[int, "np.ndarray"] = {}
        for rank, interval in step:
            base = rank * B
            for bank, acts in interval.per_bank_arrays:
                acts_by_unit[base + bank] = acts
            banks_col, rows_col = interval.column_arrays
            if banks_col.size:
                unit_cols.append(banks_col + base)
                row_cols.append(rows_col)
        # One aggregation for the whole channel: np.unique over a packed
        # unit×row key (rows biased to non-negative). Unique pairs come
        # out sorted by (unit, row), so per-unit segments are contiguous
        # runs and each segment is that bank's sorted unique-row
        # aggregation — exactly what the per-bank kernel would compute.
        segments = []  # (unit, uniq_rows, counts, first_occurrence)
        if unit_cols:
            units_col = np.concatenate(unit_cols)
            rows_all = np.concatenate(row_cols)
            rmin = int(rows_all.min())
            span = int(rows_all.max()) - rmin + 1
            if span <= (2 ** 61) // max(self.units, 1):
                keys = units_col * span + (rows_all - rmin)
                uniq_keys, first, counts = np.unique(
                    keys, return_index=True, return_counts=True
                )
                uniq_units = uniq_keys // span
                uniq_rows = uniq_keys - uniq_units * span + rmin
                seg_units, seg_starts = np.unique(
                    uniq_units, return_index=True
                )
                bounds = seg_starts.tolist() + [uniq_keys.size]
                for i, unit in enumerate(seg_units.tolist()):
                    s, e = bounds[i], bounds[i + 1]
                    segments.append(
                        (unit, uniq_rows[s:e], counts[s:e], first[s:e])
                    )
            else:  # pragma: no cover - astronomical row indices only
                # The packed key would overflow int64; aggregate each
                # unit separately (same downstream plan).
                for unit in sorted(acts_by_unit):
                    uniq, first, counts = np.unique(
                        acts_by_unit[unit],
                        return_index=True,
                        return_counts=True,
                    )
                    segments.append((unit, uniq, counts, first))
        absorb = []
        demand_units: list[int] = []
        demand_ns: list[int] = []
        exact_units = []
        scatter_units = []
        reset_parts = []
        vkey_parts = []
        vweight_parts = []
        since_parts = []
        since_count_parts = []
        overflow = []
        for unit, uniq, counts, first in segments:
            # Within a unit all acts come from one contiguous slice of
            # the packed columns in issue order, so sorting the global
            # first-occurrence indices reproduces the per-bank
            # first-occurrence order the tracker contract requires.
            order = np.argsort(first, kind="stable")
            tracker_agg = (uniq[order], counts[order])
            rank, bank = divmod(unit, B)
            sim = ranks[rank]
            acts = acts_by_unit[unit]
            absorb.append(
                (sim.trackers[bank].on_activate_batch, acts, tracker_agg)
            )
            demand_units.append(unit)
            demand_ns.append(len(acts))
            # Activated rows outside the bank are legal no-ops on the
            # oracle; in-range rows update the packed unmitigated-run
            # counters, out-of-range ones stay in the rank dicts.
            in_range = (uniq >= 0) & (uniq < rows_n)
            since_parts.append(unit * rows_n + uniq[in_range])
            since_count_parts.append(counts[in_range].astype(np.int64))
            if not bool(in_range.all()):
                oob = ~in_range
                overflow.append(
                    (
                        sim._bank_since[bank],
                        sim._bank_peak[bank],
                        list(
                            zip(uniq[oob].tolist(), counts[oob].tolist())
                        ),
                    )
                )
            agg = (uniq, counts)
            model = sim.device.banks[bank]
            if uniq.size:
                # Widen the unit's activated-row envelope (uniq is
                # sorted; only its in-range part can reach the packed
                # unmitigated-run counters).
                lo = int(uniq[0])
                hi = int(uniq[-1]) + 1
                if lo < 0:
                    lo = 0
                if hi > rows_n:
                    hi = rows_n
                if lo < self._row_lo[unit]:
                    self._row_lo[unit] = lo
                if hi > self._row_hi[unit]:
                    self._row_hi[unit] = hi
            if not self._radius1 or (
                uniq.size > 1 and bool(np.any(np.diff(uniq) == 1))
            ):
                # Aggressor/victim interleaving within the bank (the
                # in-batch order of self-refreshes is observable), or a
                # blast radius the packed scatter does not model.
                exact_units.append((model, acts, agg))
                continue
            scatter_units.append((model, acts, agg))
            # Only in-range rows get their self-reset, but even
            # out-of-range aggressors can have in-range victims.
            reset_parts.append(unit * rows_n + uniq[in_range])
            victims = np.concatenate((uniq - 1, uniq + 1))
            weights = np.concatenate((counts, counts)).astype(np.float64)
            valid = (victims >= 0) & (victims < rows_n)
            vkey_parts.append(unit * rows_n + victims[valid])
            vweight_parts.append(weights[valid])
        if since_parts:
            since_keys = np.concatenate(since_parts)
            since_counts = np.concatenate(since_count_parts)
        else:
            since_keys = np.empty(0, dtype=np.intp)
            since_counts = np.empty(0, dtype=np.int64)
        if reset_parts:
            reset_keys = np.concatenate(reset_parts)
        else:
            reset_keys = np.empty(0, dtype=np.intp)
        if vkey_parts:
            vkeys = np.concatenate(vkey_parts)
            vweights = np.concatenate(vweight_parts)
            victims_unique = np.unique(vkeys)
            idx = np.searchsorted(victims_unique, vkeys)
            delta = np.bincount(
                idx, weights=vweights, minlength=victims_unique.size
            )
        else:
            victims_unique = np.empty(0, dtype=np.intp)
            delta = np.empty(0, dtype=np.float64)
        if demand_units:
            demand_keys = np.array(demand_units, dtype=np.intp)
            demand_counts = np.array(demand_ns, dtype=np.int64)
        else:
            demand_keys = np.empty(0, dtype=np.intp)
            demand_counts = np.empty(0, dtype=np.int64)
        return (
            absorb,
            exact_units,
            scatter_units,
            reset_keys,
            victims_unique,
            delta,
            since_keys,
            since_counts,
            overflow,
            demand_keys,
            demand_counts,
            step,
        )

    def _fused_refresh(self, round_ranks: list[int], time_ns: float) -> None:
        """One REF round across every rank whose REF executes now.

        Equivalent to calling ``RankSimulator._refresh`` on each rank:
        banks (and ranks) are independent, so fusing the per-bank
        auto-refresh sweeps and the common mitigation shape across
        units is an unobservable reordering.
        """
        B = self.num_banks
        rows_n = self.num_rows
        # Rolling auto-refresh: the slice math of
        # ``DramDevice.auto_refresh``, run against kernel-side per-rank
        # counters (the idle device counters sync back in
        # ``materialize``). The overwhelmingly common round — every rank
        # refreshing the same slice — is one basic 2-D slice store;
        # slices differ across ranks only under uneven postponement.
        refw = self._refw
        slice_rows = self._slice_rows
        ref_counts = self._ref_counts
        slices = []
        for rank in round_ranks:
            i = ref_counts[rank] % refw
            ref_counts[rank] += 1
            lo = i * slice_rows
            if i == refw - 1:
                hi = rows_n
            else:
                hi = min(lo + slice_rows, rows_n)
            slices.append((lo, hi))
        lo, hi = slices[0]
        if (
            len(round_ranks) == self.num_ranks
            and slices.count(slices[0]) == len(slices)
        ):
            if hi > lo:
                self.dist[:, lo:hi] = 0.0
        else:
            slice_units: dict[tuple[int, int], list[int]] = {}
            for rank, span in zip(round_ranks, slices):
                slice_units.setdefault(span, []).extend(
                    range(rank * B, (rank + 1) * B)
                )
            for (lo, hi), units in slice_units.items():
                if hi > lo:
                    self.dist[units, lo:hi] = 0.0
        # Collect this round's mitigation requests. The common shape —
        # one plain distance-1 request for the bank — fuses; anything
        # else (victim-centric, transitive, multi-request) goes through
        # the per-bank applier unchanged. Units are independent, so the
        # split cannot reorder anything observable.
        fused = []
        reqs = []
        rows_list: list[int] = []
        handlers = self._ref_handlers
        for rank in round_ranks:
            for entry in handlers[rank]:
                requests = entry[3]()
                if not requests:
                    continue
                if (
                    len(requests) == 1
                    and type(requests[0]) is MitigationRequest
                    and requests[0].distance == 1
                    and self._radius1
                ):
                    request = requests[0]
                    fused.append(entry)
                    reqs.append(request)
                    rows_list.append(request.row)
                else:
                    sim, bank, unit, _ = entry
                    for request in requests:
                        self._apply_slow(sim, bank, unit, request, time_ns)
        m = len(fused)
        if m == 0:
            return
        if m == 1:
            sim, bank, unit, _ = fused[0]
            self._apply_slow(sim, bank, unit, reqs[0], time_ns)
            return
        # round_ranks ascends and banks are swept in order, so when
        # every unit fused exactly one request this round the packed
        # unit bases are the cached arange * num_rows verbatim.
        units_arr = None
        if m != self.units:
            units_arr = np.fromiter(
                (entry[2] for entry in fused), dtype=np.intp, count=m
            )
        # Refreshed victims (aggressor±1, clipped) and the neighbour
        # bumps their refresh-activations cause (victim±1, clipped).
        # Within a unit the two sets are disjoint ({a±1} vs {a-2,a,a+2})
        # and across units the packed keys cannot collide, so reset
        # order versus bump order is unobservable.
        akeys = None
        interior = min(rows_list) >= 2 and max(rows_list) <= rows_n - 3
        rows_arr = np.array(rows_list, dtype=np.intp)
        if interior:
            # Interior fast shape: no clipping anywhere, so victims are
            # exactly {a±1} and bumps land on {a-2, a, a+2} with the
            # fixed [1, 2, 1] pattern (at most one fused request per
            # unit, so no key can repeat). One broadcast add produces
            # all five key blocks; the slices below are views into it.
            if units_arr is None:
                base_keys = self._unit_bases + rows_arr
            else:
                base_keys = units_arr * rows_n + rows_arr
            all_keys = (self._mit_offsets + base_keys).reshape(-1)
            vkeys = all_keys[:2 * m]
            nunique = all_keys[2 * m:]
            akeys = all_keys[3 * m:4 * m]
            bump = self._bump_patterns.get(m)
            if bump is None:
                bump = np.empty(3 * m, dtype=np.float64)
                bump[:m] = 1.0
                bump[m:2 * m] = 2.0
                bump[2 * m:] = 1.0
                self._bump_patterns[m] = bump
            new = self.dist_flat[nunique] + bump
        else:
            if units_arr is None:
                units_arr = self._all_units
            vrows = np.concatenate((rows_arr - 1, rows_arr + 1))
            vunits = np.concatenate((units_arr, units_arr))
            valid = (vrows >= 0) & (vrows < rows_n)
            vrows = vrows[valid]
            vunits = vunits[valid]
            vkeys = vunits * rows_n + vrows
            nrows = np.concatenate((vrows - 1, vrows + 1))
            nunits = np.concatenate((vunits, vunits))
            nvalid = (nrows >= 0) & (nrows < rows_n)
            nkeys = nunits[nvalid] * rows_n + nrows[nvalid]
            new = None
            if nkeys.size:
                nunique = np.unique(nkeys)
                bump = np.bincount(
                    np.searchsorted(nunique, nkeys), minlength=nunique.size
                ).astype(np.float64)
                new = self.dist_flat[nunique] + bump
        if new is not None:
            bump_mx = new.max()
            if bump_mx >= self.trh and bool(
                ((new >= self.trh) & ~self.flipped_flat[nunique]).any()
            ):
                # Rare: a mitigation bump crosses TRH — replay through
                # the per-bank appliers (exact per-crossing flips).
                for (sim, bank, unit, _), request in zip(fused, reqs):
                    self._apply_slow(sim, bank, unit, request, time_ns)
                return
            if self._bound is not None and bump_mx > self._bound:
                self._bound = float(bump_mx)
        self.dist_flat[vkeys] = 0.0
        self.since_flat[vkeys] = 0
        if akeys is None:
            a_in = (rows_arr >= 0) & (rows_arr < rows_n)
            if bool(a_in.any()):
                akeys = units_arr[a_in] * rows_n + rows_arr[a_in]
        if akeys is not None:
            self.since_flat[akeys] = 0
        if new is not None:
            self.dist_flat[nunique] = new
            self.peak_flat[nunique] = np.maximum(
                self.peak_flat[nunique], new
            )
        # Engine bookkeeping, per request (bumps are monotone, so the
        # single packed peak max equals the sequential per-bump maxes).
        if interior and not self._any_observing:
            # Interior rows are always in range and no tracker wants
            # the mitigation-activate callbacks, so the sweep is one
            # packed tally increment.
            if units_arr is None:
                self.mitig += 1
            else:
                self.mitig[units_arr] += 1
            return
        for (sim, bank, _, _), request in zip(fused, reqs):
            sim.bank_mitigations[bank] += 1
            row = request.row
            if not 0 <= row < rows_n:
                # Out-of-range aggressor: its reset lives in the dict
                # overflow, like its activations.
                # kernel/simulator pair: the kernel owns the packed twins
                # repro-lint: allow[private-poke] dict-overflow counter sync
                sim._bank_since[bank][row] = 0
            tracker = sim.trackers[bank]
            if tracker.observes_mitigations:
                for victim in (row - 1, row + 1):
                    if 0 <= victim < rows_n:
                        tracker.on_mitigation_activate(victim)

    def _apply_slow(
        self,
        sim: "RankSimulator",
        bank: int,
        unit: int,
        request: MitigationRequest,
        time_ns: float,
    ) -> None:
        """Per-bank mitigation applier for fused runs.

        Mirrors :meth:`RankSimulator._apply` exactly, except the
        unmitigated-run resets land in the kernel's packed counters
        (dict overflow for out-of-range rows) so both representations
        stay consistent during a fused run.
        """
        self._step_slow = True
        self._bound = None
        sim.bank_mitigations[bank] += 1
        if request.distance > 1:
            sim.bank_transitive_mitigations[bank] += 1
        rows_n = self.num_rows
        base = unit * rows_n
        since_flat = self.since_flat
        if isinstance(request, VictimRefreshRequest):
            refreshed = sim.device.victim_refresh(bank, request.row, time_ns)
        else:
            refreshed = sim.device.mitigate(
                bank, request.row, request.distance, time_ns
            )
            row = request.row
            if 0 <= row < rows_n:
                since_flat[base + row] = 0
            else:
                # repro-lint: allow[private-poke] dict-overflow counter sync
                sim._bank_since[bank][row] = 0
        tracker = sim.trackers[bank]
        observes = tracker.observes_mitigations
        for victim in refreshed:
            if 0 <= victim < rows_n:
                since_flat[base + victim] = 0
            else:
                # repro-lint: allow[private-poke] dict-overflow counter sync
                sim._bank_since[bank][victim] = 0
            if observes:
                tracker.on_mitigation_activate(victim)

    # -- compiled tier -------------------------------------------------
    def _compiled_state(self) -> dict | None:
        """Per-kernel state arrays for the compiled march, built once.

        Every tracker in the channel must be exactly a null tracker or
        a plain-RNG :class:`~repro.core.mint.MintTracker` (the pure-
        tally shapes the compiled REF logic implements); anything else
        — or any tracker observing mitigation activations — disables
        the tier for this kernel and the fused Python paths carry on.
        """
        state = self._cstate
        if state is not None:
            return state
        if self._any_observing:
            self._compiled_off = True
            return None
        import random as random_mod

        from ..core.mint import MintTracker
        from ..trackers.base import NullTracker

        kind = np.zeros(self.units, dtype=np.int64)
        mints: list = [None] * self.units
        for rank, sim in enumerate(self.ranks):
            for bank in range(self.num_banks):
                unit = rank * self.num_banks + bank
                tracker = sim.trackers[bank]
                if type(tracker) is NullTracker:
                    continue
                low = 0 if getattr(tracker, "transitive", True) else 1
                if (
                    type(tracker) is MintTracker
                    and type(tracker.rng) is random_mod.Random
                    and (tracker.max_act - low + 1).bit_length() <= 32
                ):
                    kind[unit] = 1
                    mints[unit] = tracker
                else:
                    self._compiled_off = True
                    return None
        units = self.units
        state = {
            "kind": kind,
            "mints": mints,
            "m_san": np.zeros(units, dtype=np.int64),
            "m_sar": np.zeros(units, dtype=np.int64),
            "m_valid": np.zeros(units, dtype=np.int64),
            "m_dist": np.zeros(units, dtype=np.int64),
            "m_sel": np.zeros(units, dtype=np.int64),
            "mitig": np.zeros(units, dtype=np.int64),
            "transmit": np.zeros(units, dtype=np.int64),
            "draw_off": np.zeros(units, dtype=np.int64),
            "ref_counts": np.zeros(self.num_ranks, dtype=np.int64),
        }
        self._cstate = state
        return state

    def _lower(self, plan: tuple):
        """The plan's flat-array form for the compiled march (memoized
        per plan object; ``None`` when the plan cannot lower)."""
        entry = self._lowered_cache.get(id(plan), _CACHE_MISS)
        if entry is not _CACHE_MISS:
            return entry[1]
        lowered = self._build_lowered(plan)
        # The entry pins the plan so its id cannot be recycled.
        self._lowered_cache.put(id(plan), (plan, lowered))
        return lowered

    def _build_lowered(self, plan: tuple):
        (
            absorb,
            exact_units,
            _scatter_units,
            reset_keys,
            victims,
            delta,
            since_keys,
            since_counts,
            overflow,
            demand_keys,
            demand_counts,
            step,
        ) = plan
        # Order-sensitive shapes (aggressor/victim adjacency) and
        # out-of-range activations keep their per-step handling.
        if exact_units or overflow:
            return None
        lengths = np.zeros(self.units, dtype=np.int64)
        parts = []
        # ``absorb`` entries parallel ``demand_keys`` (both are built
        # per segment, unit-ascending), so this pairs each unit with
        # its raw act rows.
        for (_, acts, _), unit in zip(absorb, demand_keys.tolist()):
            arr = np.ascontiguousarray(acts, dtype=np.int64)
            lengths[unit] = arr.shape[0]
            parts.append(arr)
        acts_off = np.zeros(self.units + 1, dtype=np.int64)
        np.cumsum(lengths, out=acts_off[1:])
        acts_concat = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )
        step_ranks = np.array(
            sorted(rank for rank, _ in step), dtype=np.int64
        )
        postpone_any = any(interval.postpone for _, interval in step)
        max_delta = float(delta.max()) if delta.size else 0.0
        return (
            step_ranks,
            postpone_any,
            np.ascontiguousarray(reset_keys, dtype=np.int64),
            np.ascontiguousarray(victims, dtype=np.int64),
            np.ascontiguousarray(delta, dtype=np.float64),
            np.ascontiguousarray(since_keys, dtype=np.int64),
            np.ascontiguousarray(since_counts, dtype=np.int64),
            acts_concat,
            acts_off,
            demand_keys,
            demand_counts,
            # Flip-safety step gain: the largest one-step increase any
            # cell can see — its activation-scatter delta plus the
            # worst mitigation bump (2.0: a distance-1 aggressor is
            # bumped by both of its victims' refresh activations).
            max_delta + 2.0,
        )

    def _compiled_march(self, step: list, plan: tuple, n: int) -> int:
        """March up to ``n`` identical steps inside one compiled call.

        Returns the number of steps executed (0 when the plan or the
        current tracker/scheduler state does not qualify); the caller
        replays the remainder through the per-step path. On a
        flip-safety bail the tier switches off for the rest of this
        kernel — from there on the run is threshold-bound and needs
        per-step flip ordering anyway.
        """
        lowered = self._lower(plan)
        if lowered is None:
            return 0
        state = self._compiled_state()
        if state is None:
            return 0
        (
            step_ranks,
            postpone_any,
            reset_keys,
            victims,
            delta,
            since_keys,
            since_counts,
            acts_concat,
            acts_off,
            demand_keys,
            demand_counts,
            step_gain,
        ) = lowered
        ranks = self.ranks
        # Postponement makes REF counts per step data-dependent; the
        # compiled march assumes exactly one REF per active rank.
        if self.allow_postponement and postpone_any:
            return 0
        rank_list = step_ranks.tolist()
        for rank in rank_list:
            if ranks[rank].scheduler.postponed:
                return 0
        trh = self.trh
        bound = self._bound
        if bound is None:
            bound = float(self.dist.max()) if self.dist.size else 0.0
            self._bound = bound
        if bound + step_gain >= trh:
            # Threshold territory: every step can flip and needs exact
            # event ordering — permanently the per-step path's job.
            self.compiled_bails += 1
            self._compiled_off = True
            return 0
        from ..kernels.mt import draw_exact

        kind = state["kind"]
        mints = state["mints"]
        m_san = state["m_san"]
        m_sar = state["m_sar"]
        m_valid = state["m_valid"]
        m_dist = state["m_dist"]
        m_sel = state["m_sel"]
        mitig = state["mitig"]
        transmit = state["transmit"]
        draw_off = state["draw_off"]
        num_rows = self.num_rows
        B = self.num_banks
        # MINT sync-in. CAN must be 0 (every fused step ends on a REF)
        # and a pending SAR in range (out-of-range resets live in the
        # dict overflow, a per-step concern).
        active_mints = []
        for rank in rank_list:
            base = rank * B
            for bank in range(B):
                unit = base + bank
                if kind[unit] != 1:
                    continue
                tracker = mints[unit]
                if tracker.can != 0:
                    return 0
                sar = tracker.sar
                if sar is not None and not 0 <= sar < num_rows:
                    return 0
                active_mints.append((unit, tracker))
        draws = np.empty(len(active_mints) * n, dtype=np.int64)
        saved = []
        for i, (unit, tracker) in enumerate(active_mints):
            sar = tracker.sar
            m_san[unit] = -1 if tracker.san is None else tracker.san
            m_valid[unit] = 0 if sar is None else 1
            m_sar[unit] = 0 if sar is None else sar
            m_dist[unit] = tracker._distance
            m_sel[unit] = tracker.selections
            mitig[unit] = 0
            transmit[unit] = 0
            draw_off[unit] = i * n
            low = 0 if tracker.transitive else 1
            # One REF per step consumes exactly one randint; pre-draw
            # the whole march (bit-exact, see repro.kernels.mt) and
            # rewind to the consumed prefix on an early bail.
            saved.append((tracker, tracker.rng.getstate(), low))
            draws[i * n : (i + 1) * n] = draw_exact(
                tracker.rng, n, low, tracker.max_act
            )
        ref_counts = state["ref_counts"]
        for rank in range(self.num_ranks):
            ref_counts[rank] = self._ref_counts[rank]
        try:
            done, bound_out = self._march_fn(
                self.dist_flat,
                self.peak_flat,
                self.since_flat,
                self.speak_flat,
                mitig,
                transmit,
                reset_keys,
                victims,
                delta,
                since_keys,
                since_counts,
                acts_concat,
                acts_off,
                step_ranks,
                B,
                num_rows,
                ref_counts,
                self._refw,
                self._slice_rows,
                kind,
                m_san,
                m_sar,
                m_valid,
                m_dist,
                m_sel,
                draw_off,
                draws,
                n,
                trh,
                step_gain,
                bound,
            )
        except Exception:
            # A provider that cannot take this call (e.g. a ctypes
            # argument conversion error) raises before the body
            # executes; undo the pre-draws and stay on the per-step path.
            for tracker, rng_state, _ in saved:
                tracker.rng.setstate(rng_state)
            self._compiled_off = True
            return 0
        self.compiled_calls += 1
        if done < n:
            self.compiled_bails += 1
            self._compiled_off = True
            for tracker, rng_state, low in saved:
                tracker.rng.setstate(rng_state)
                if done:
                    draw_exact(tracker.rng, done, low, tracker.max_act)
            if done == 0:
                return 0
        self.compiled_steps += done
        self.steps += done
        self._bound = float(bound_out)
        # Sync the marched state back to its Python-side owners.
        for unit, tracker in active_mints:
            tracker.san = None if m_san[unit] == -1 else int(m_san[unit])
            tracker.sar = int(m_sar[unit]) if m_valid[unit] else None
            # compiled march mirrors MintTracker's own bookkeeping
            # repro-lint: allow[private-poke] synced back verbatim
            tracker._distance = int(m_dist[unit])
            tracker.selections = int(m_sel[unit])
            issued = int(mitig[unit])
            if issued:
                tracker.mitigations_issued += issued
                # Engine-side tally: same fold-at-materialize deal as
                # the fused Python path.
                self.mitig[unit] += issued
            trans = int(transmit[unit])
            if trans:
                tracker.transitive_mitigations += trans
                ranks[unit // B].bank_transitive_mitigations[
                    unit % B
                ] += trans
        if demand_keys.size:
            self.demand_acc[demand_keys] += demand_counts * done
        for rank in rank_list:
            sim = ranks[rank]
            sim.intervals += done
            sim.scheduler.interval_index += done
            sim.scheduler.total_refreshes += done
            self._ref_counts[rank] = int(ref_counts[rank])
        return done

    def stats(self) -> dict:
        """Kernel-path telemetry for this run (see ``__init__``)."""
        return {
            "backend": (
                "compiled" if self._march_fn is not None else "numpy"
            ),
            "provider": self._provider,
            "steps": self.steps,
            "fast_path_steps": self.fast_steps,
            "slow_path_steps": self.slow_steps,
            "compiled_steps": self.compiled_steps,
            "compiled_calls": self.compiled_calls,
            "compiled_bails": self.compiled_bails,
            "plan_cache_hits": self.plan_hits,
            "plan_cache_misses": self.plan_misses,
        }

    def materialize(self) -> None:
        """Merge the packed unmitigated-run peaks back into the rank
        dicts that :meth:`RankSimulator.collect` reads.

        The packed array holds every in-range row's peak; the dicts
        hold only the out-of-range overflow, so the merge is a disjoint
        union. Values come back as Python ints, matching what the
        scalar path accumulates (dict ordering may differ, which
        neither equality nor the canonical sorted-JSON form observes).
        """
        for rank, sim in enumerate(self.ranks):
            for bank in range(self.num_banks):
                unit = rank * self.num_banks + bank
                # speak only ever gets written at in-range activated
                # rows, all inside the unit's touched-row envelope —
                # scan the window, not the whole row space.
                lo = self._row_lo[unit]
                hi = self._row_hi[unit]
                if lo < hi:
                    window = self.speak[unit, lo:hi]
                    rows = np.flatnonzero(window)
                    merged = dict(
                        zip(
                            (rows + lo).tolist(),
                            window[rows].tolist(),
                        )
                    )
                else:
                    merged = {}
                merged.update(sim._bank_peak[bank])
                # repro-lint: allow[private-poke] folds packed peaks back
                sim._bank_peak[bank] = merged
                tally = int(self.mitig[unit])
                if tally:
                    sim.bank_mitigations[bank] += tally
                demand = int(self.demand_acc[unit])
                if demand:
                    sim.bank_demand_acts[bank] += demand
            # REFs ran against the kernel-side counters; bring the idle
            # device counters up to date (idempotent assignment).
            # repro-lint: allow[private-poke] kernel ran the REF rounds
            sim.device._ref_counter = [self._ref_counts[rank]] * self.num_banks
        # Zeroed after folding so a second materialize is a no-op.
        self.mitig[:] = 0
        self.demand_acc[:] = 0


class ChannelSimulator:
    """Runs per-rank schedules against a DDR5 channel of N ranks.

    The channel is the top of the simulation stack: ``num_ranks``
    :class:`RankSimulator`\\ s — each a full rank of per-bank trackers
    behind its own refresh schedule — marched through one shared tREFI
    clock, the way a memory controller interleaves activations across
    the ranks sharing a command bus. Rank simulations are independent
    by construction (DDR5 REF, and hence postponement, is per rank), so
    a channel run decomposes exactly: rank ``r``'s
    :class:`~repro.sim.results.RankSimResult` is bit-identical to
    running ``r``'s schedule alone on a :class:`RankSimulator` built
    from the same per-rank tracker factory — the channel-equivalence
    property the tests pin, and what makes the paper's per-tracker
    security claims composable into channel-level MTTF accounting.

    The fused march (:class:`_FusedChannelKernel`) runs every rank
    through one packed ``(rank·bank, row)`` array family, one
    whole-channel scatter per tREFI; the reference engine
    (``vectorized=False``) runs each rank alone, since ranks are
    independent. Both produce bit-identical results (pinned by the
    channel identity property suite).

    Parameters
    ----------
    tracker_factory:
        Called with ``(rank, bank)`` for every bank of every rank; each
        call must return an independent tracker instance.
        :func:`repro.trackers.registry.channel_tracker_factory` builds a
        suitable factory from a registry name plus a base seed (ranks
        derive independent seed streams).
    config:
        Per-rank engine knobs; ``num_ranks`` selects the channel width.
    """

    def __init__(
        self,
        tracker_factory: Callable[[int, int], Tracker],
        config: EngineConfig | None = None,
    ) -> None:
        c = config or EngineConfig()
        if c.num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self.config = c
        self.num_ranks = c.num_ranks
        self.num_banks = c.num_banks
        self.ranks = [
            RankSimulator(
                (lambda bank, _rank=rank: tracker_factory(_rank, bank)),
                replace(c, num_ranks=1),
            )
            for rank in range(c.num_ranks)
        ]
        self._consumed = False

    def run(
        self, trace: "ChannelTrace | Trace | RankTrace | TraceStream"
    ) -> ChannelSimResult:
        """Execute a channel schedule to completion.

        ``trace`` is normally a :class:`~repro.sim.trace.ChannelTrace`
        (one schedule per rank, materialized or streaming); a rank- or
        row-scoped input is accepted as rank 0's schedule with the
        sibling ranks idle, so a 1-rank channel run of any existing
        trace is bit-identical to today's :class:`RankSimulator` run
        (pinned by the channel-equivalence tests).

        Materialized per-rank schedules are fully validated before any
        rank absorbs an interval — once; the march does not re-validate
        them chunk by chunk. Lazy streams are validated chunk by chunk
        as produced, under identical rules and messages.

        The fused march advances all ranks interval-by-interval through
        one packed array family; the reference engine runs each rank
        alone. Either way peak memory is one chunk per rank, and
        because REF scheduling — the only cross-bank coupling inside a
        rank — is per rank, the interleaving order cannot affect any
        rank's bits.

        Like :meth:`RankSimulator.run`, a channel instance runs exactly
        one schedule; reuse raises ``RuntimeError``.
        """
        if self._consumed:
            raise RuntimeError(
                "this ChannelSimulator has already run a schedule; "
                "trackers, oracle state, and counters accumulate across "
                "runs, so reusing it would silently mix windows — build "
                "a fresh simulator (or Session) per run"
            )
        self._consumed = True
        channel = self._coerce(trace)
        if channel.num_ranks > self.num_ranks:
            raise ValueError(
                f"trace {channel.name!r} addresses rank "
                f"{channel.num_ranks - 1}, but the channel has "
                f"{self.num_ranks} ranks"
            )
        streams = [channel.rank_stream(rank) for rank in range(self.num_ranks)]
        # Every upfront check runs before any rank absorbs an interval.
        prevalidated = [
            sim._prevalidate(stream, label=f"rank {rank} ")
            for rank, (sim, stream) in enumerate(zip(self.ranks, streams))
        ]
        intervals = []
        for sim, stream, checked in zip(self.ranks, streams, prevalidated):
            sim._guard_reuse()
            intervals.append(sim._intervals(stream, validate=not checked))
        if self.ranks[0].vectorized:
            stats = _FusedChannelKernel(self.ranks, self.config).march(
                intervals
            )
        else:
            stats = None
            for sim, rank_intervals in zip(self.ranks, intervals):
                sim._feed(rank_intervals)
        result = ChannelSimResult(
            trace=channel.name,
            intervals=max(
                (sim.intervals for sim in self.ranks), default=0
            ),
            per_rank=[
                sim.collect(stream.name)
                for sim, stream in zip(self.ranks, streams)
            ],
        )
        # Diagnostic side channel, deliberately not a dataclass field:
        # results stay bit-identical across engines.
        result.kernel_stats = stats
        return result

    def _coerce(self, trace) -> ChannelTrace:
        if isinstance(trace, ChannelTrace):
            return trace
        if isinstance(trace, (Trace, RankTrace, TraceStream)):
            stream = as_trace_stream(trace)
            return ChannelTrace(name=stream.name, per_rank={0: stream})
        raise TypeError(
            f"cannot run {type(trace).__name__} on a channel; expected "
            f"ChannelTrace, Trace, RankTrace, or TraceStream"
        )

    def rank(self, index: int) -> RankSimulator:
        """The rank-``index`` simulator (trackers, per-bank counters)."""
        return self.ranks[index]

    @property
    def trackers(self) -> list[list[Tracker]]:
        """Tracker instances as ``trackers[rank][bank]``."""
        return [sim.trackers for sim in self.ranks]

    @property
    def any_flip(self) -> bool:
        return any(sim.any_flip for sim in self.ranks)


def with_dmq(tracker: Tracker, timing: DDR5Timing = DEFAULT_TIMING) -> Tracker:
    """Wrap ``tracker`` in a DDR5-sized Delayed Mitigation Queue."""
    return DelayedMitigationQueue(tracker, max_act=timing.max_act, depth=4)
