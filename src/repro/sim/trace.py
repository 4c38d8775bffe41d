"""Attack-trace representation for the security simulator.

A trace is a sequence of :class:`Interval` objects — one per tREFI.
Each interval carries up to MaxACT row activations (the tRC budget)
and a flag asking the memory controller to postpone the REF that would
close the interval (granted only while fewer than four are owed).

Traces come in two address widths:

* :class:`Trace` — row-only ACT streams, the historical single-bank
  format. The engine auto-lifts these to bank 0 (``Interval.per_bank``
  is the lifting seam), so every pre-rank caller keeps working and
  produces bit-identical results.
* :class:`RankTrace` — bank-addressed streams whose intervals carry
  ``(bank, row)`` pairs, the input of the rank-level engine. Per-bank
  projections (:meth:`RankTrace.bank_trace`) and the inverse merge
  (:meth:`RankTrace.from_bank_traces`) convert between the two widths.

The REF-postponement flag is rank-scoped in both formats: refresh
scheduling is a rank-level memory-controller decision, so merging
per-bank traces ORs their flags.

Above the materialized formats sits the *streaming* layer:
:class:`TraceStream` yields intervals in bounded chunks so attacks can
emit unbounded schedules lazily (a materialized :class:`RankTrace` is
the special case wrapped by :class:`MaterializedStream`), and
:class:`ChannelTrace` groups per-rank streams for the channel-level
engine. See the "Streaming traces" section below.

Both interval types additionally expose a structured-array view,
``per_bank_arrays`` — the same per-bank split with each bank's rows as
a NumPy ``intp`` array instead of a tuple. The vectorized engine
consumes this view; it is cached on the interval object, so traces
built from :func:`repeat_interval`/:func:`repeat_rank_interval` (one
shared interval object across thousands of tREFIs) pay the conversion
once. Attack generators can skip the tuple round-trip entirely with
:meth:`RankInterval.from_arrays`, which seeds the cache directly from
``bank``/``row`` column arrays — and also seeds
:attr:`RankInterval.column_arrays`, the packed flat view the fused
channel kernel folds into its ``rank × bank × row`` keys. Arrays handed
out by these views are owned by the interval and must not be mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np


def _split_by_bank(banks, rows):
    """Group ``rows`` by ``banks`` (ascending), issue order kept per bank."""
    order = np.argsort(banks, kind="stable")
    sorted_banks = banks[order]
    sorted_rows = rows[order]
    unique_banks, starts = np.unique(sorted_banks, return_index=True)
    chunks = np.split(sorted_rows, starts[1:])
    return tuple(
        (int(bank), chunk) for bank, chunk in zip(unique_banks.tolist(), chunks)
    )


@dataclass(frozen=True)
class Interval:
    """One tREFI worth of demand activations."""

    acts: tuple[int, ...]
    postpone: bool = False

    @staticmethod
    def of(acts: Iterable[int], postpone: bool = False) -> "Interval":
        return Interval(tuple(acts), postpone)

    @property
    def per_bank(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Bank-addressed view: a row-only interval is bank 0's stream."""
        return ((0, self.acts),)

    @cached_property
    def per_bank_arrays(self):
        """Array view of :attr:`per_bank` (cached; arrays are read-only
        by contract)."""
        return ((0, np.asarray(self.acts, dtype=np.intp)),)


@dataclass(frozen=True)
class RankInterval:
    """One tREFI worth of bank-addressed demand activations.

    ``acts`` holds ``(bank, row)`` pairs in issue order. The per-bank
    split is cached on the instance because attack generators share one
    interval object across thousands of tREFIs (``repeat_interval``),
    so the engine pays the grouping cost once per distinct interval.
    """

    acts: tuple[tuple[int, int], ...]
    postpone: bool = False

    @staticmethod
    def of(
        acts: Iterable[tuple[int, int]], postpone: bool = False
    ) -> "RankInterval":
        return RankInterval(tuple((b, r) for b, r in acts), postpone)

    @cached_property
    def per_bank(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """ACTs grouped by bank (ascending), issue order kept per bank."""
        grouped: dict[int, list[int]] = {}
        for bank, row in self.acts:
            grouped.setdefault(bank, []).append(row)
        return tuple(
            (bank, tuple(rows)) for bank, rows in sorted(grouped.items())
        )

    @cached_property
    def per_bank_arrays(self):
        """ACTs grouped by bank with rows as NumPy ``intp`` arrays.

        The array analogue of :attr:`per_bank`, cached for the same
        reason; the vectorized engine iterates this view. Arrays are
        owned by the interval — callers must not mutate them. Requires
        NumPy.
        """
        if not self.acts:
            return ()
        pairs = np.asarray(self.acts, dtype=np.intp)
        return _split_by_bank(pairs[:, 0], pairs[:, 1])

    @cached_property
    def column_arrays(self):
        """The interval's ACT stream as ``(banks, rows)`` column arrays.

        The packed flat view next to :attr:`per_bank_arrays`: both
        columns are NumPy ``intp`` arrays in issue order, so channel-
        level kernels can fold a whole interval into a packed
        ``rank × bank × row`` key without touching the per-bank split.
        Cached and owned by the interval like the other views; callers
        must not mutate the arrays.
        """
        if not self.acts:
            empty = np.empty(0, dtype=np.intp)
            return (empty, empty)
        pairs = np.asarray(self.acts, dtype=np.intp)
        return (pairs[:, 0], pairs[:, 1])

    @classmethod
    def from_arrays(cls, banks, rows, postpone: bool = False) -> "RankInterval":
        """Build an interval straight from ``bank``/``row`` column arrays.

        Attack generators that already produce arrays avoid the
        tuple-of-pairs round-trip: the per-bank array split is computed
        here and seeded into the :attr:`per_bank_arrays` cache — and
        the columns themselves seed :attr:`column_arrays` (the ``acts``
        tuple is still materialized for the scalar API).
        """
        banks = np.asarray(banks, dtype=np.intp)
        rows = np.asarray(rows, dtype=np.intp)
        if banks.shape != rows.shape or banks.ndim != 1:
            raise ValueError("banks and rows must be 1-D arrays of equal length")
        interval = cls(tuple(zip(banks.tolist(), rows.tolist())), postpone)
        # cached_property stores through the instance __dict__, which a
        # frozen dataclass still allows.
        interval.__dict__["per_bank_arrays"] = (
            _split_by_bank(banks, rows) if banks.size else ()
        )
        interval.__dict__["column_arrays"] = (banks, rows)
        return interval

    def acts_for_bank(self, bank: int) -> tuple[int, ...]:
        for b, rows in self.per_bank:
            if b == bank:
                return rows
        return ()


@dataclass
class Trace:
    """A named, bounded stream of intervals."""

    name: str
    intervals: list[Interval] = field(default_factory=list)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def total_acts(self) -> int:
        return sum(len(interval.acts) for interval in self.intervals)

    def rows_touched(self) -> set[int]:
        rows: set[int] = set()
        for interval in self.intervals:
            rows.update(interval.acts)
        return rows

    def validate(self, max_act: int) -> None:
        """Reject traces that exceed the per-interval ACT budget."""
        for index, interval in enumerate(self.intervals):
            if len(interval.acts) > max_act:
                raise ValueError(
                    f"interval {index} has {len(interval.acts)} ACTs, "
                    f"but at most {max_act} fit in one tREFI"
                )


@dataclass
class RankTrace:
    """A named, bounded stream of bank-addressed intervals."""

    name: str
    intervals: list[RankInterval] = field(default_factory=list)

    def __iter__(self) -> Iterator[RankInterval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def total_acts(self) -> int:
        return sum(len(interval.acts) for interval in self.intervals)

    def banks_touched(self) -> set[int]:
        banks: set[int] = set()
        for interval in self.intervals:
            for bank, _rows in interval.per_bank:
                banks.add(bank)
        return banks

    def rows_touched(self, bank: int | None = None) -> set[int]:
        """Rows activated anywhere in the trace (optionally one bank's)."""
        rows: set[int] = set()
        for interval in self.intervals:
            for b, r in interval.acts:
                if bank is None or b == bank:
                    rows.add(r)
        return rows

    def validate(
        self,
        max_act: int,
        num_banks: int | None = None,
        concurrent_banks: int | None = None,
    ) -> None:
        """Reject traces that break the per-bank or rank-level budgets.

        ``max_act`` is the per-bank tRC budget of one tREFI;
        ``num_banks`` bounds the bank address space; ``concurrent_banks``
        enforces the tFAW ceiling on how many banks can sustain demand
        activations within one interval (22 of 64 in the paper's rank).
        """
        validate_rank_intervals(
            self.intervals,
            max_act,
            num_banks=num_banks,
            concurrent_banks=concurrent_banks,
        )

    # ------------------------------------------------------------------
    # Conversions to/from the row-only single-bank format
    # ------------------------------------------------------------------
    def bank_trace(self, bank: int) -> Trace:
        """Project one bank's stream (same length; other banks' ACTs
        dropped, rank-level postpone flags kept)."""
        return Trace(
            name=self.name,
            intervals=[
                Interval(interval.acts_for_bank(bank), interval.postpone)
                for interval in self.intervals
            ],
        )

    def bank_traces(self) -> dict[int, Trace]:
        """Per-bank projections for every bank the trace touches."""
        return {
            bank: self.bank_trace(bank) for bank in sorted(self.banks_touched())
        }

    @classmethod
    def from_bank_traces(
        cls,
        name: str,
        traces: Mapping[int, Trace] | Sequence[Trace],
    ) -> "RankTrace":
        """Merge per-bank row traces into one rank trace.

        A sequence assigns trace ``i`` to bank ``i``. Shorter traces are
        padded with idle intervals to the longest; an interval's
        postpone flag is the OR of the banks' flags (postponement is a
        rank-level REF decision).

        Identical merged intervals are interned — repeated hammer
        patterns collapse to one shared :class:`RankInterval` object, so
        downstream per-interval caches (the bank split, the engine's
        batch aggregation) are computed once per *distinct* interval
        rather than once per tREFI.
        """
        if not isinstance(traces, Mapping):
            traces = dict(enumerate(traces))
        if not traces:
            return cls(name=name, intervals=[])
        length = max(len(trace) for trace in traces.values())
        intervals = []
        interned: dict[tuple, RankInterval] = {}
        for i in range(length):
            acts: list[tuple[int, int]] = []
            postpone = False
            for bank in sorted(traces):
                trace = traces[bank]
                if i >= len(trace.intervals):
                    continue
                interval = trace.intervals[i]
                acts.extend((bank, row) for row in interval.acts)
                postpone = postpone or interval.postpone
            key = (tuple(acts), postpone)
            merged = interned.get(key)
            if merged is None:
                merged = RankInterval(key[0], postpone)
                interned[key] = merged
            intervals.append(merged)
        return cls(name=name, intervals=intervals)


def lift_trace(trace: Trace, bank: int = 0) -> RankTrace:
    """Lift a row-only trace onto one bank of a rank.

    Identical source intervals (e.g. from :func:`repeat_interval`) lift
    to one shared :class:`RankInterval`, preserving the per-distinct-
    interval caching the repeat idiom buys.
    """
    interned: dict[tuple, RankInterval] = {}
    intervals = []
    for interval in trace.intervals:
        key = (interval.acts, interval.postpone)
        lifted = interned.get(key)
        if lifted is None:
            lifted = RankInterval(
                tuple((bank, row) for row in interval.acts), interval.postpone
            )
            interned[key] = lifted
        intervals.append(lifted)
    return RankTrace(name=trace.name, intervals=intervals)


def repeat_interval(
    acts: Iterable[int], count: int, postpone: bool = False
) -> list[Interval]:
    """``count`` identical intervals (the classic-attack building block)."""
    interval = Interval.of(acts, postpone)
    return [interval] * count


def repeat_rank_interval(
    acts: Iterable[tuple[int, int]], count: int, postpone: bool = False
) -> list[RankInterval]:
    """``count`` identical bank-addressed intervals (sharing one object,
    so the engine's per-interval bank split is computed once)."""
    interval = RankInterval.of(acts, postpone)
    return [interval] * count


# ---------------------------------------------------------------------
# Streaming traces
# ---------------------------------------------------------------------

def validate_rank_intervals(
    intervals: Sequence[RankInterval],
    max_act: int,
    num_banks: int | None = None,
    concurrent_banks: int | None = None,
    start: int = 0,
) -> None:
    """Check a run of bank-addressed intervals against the budgets.

    The single source of the per-interval budget rules: the materialized
    :meth:`RankTrace.validate` checks its whole interval list through
    here, and the engine's streaming path checks each chunk as it
    arrives with ``start`` carrying the running interval offset — so a
    streamed trace is rejected under exactly the rules (and with exactly
    the messages) a materialized one would be, just lazily.
    """
    for index, interval in enumerate(intervals, start=start):
        split = interval.per_bank
        if concurrent_banks is not None and len(split) > concurrent_banks:
            raise ValueError(
                f"interval {index} activates {len(split)} banks, but "
                f"tFAW sustains at most {concurrent_banks} concurrently"
            )
        for bank, rows in split:
            if bank < 0:
                raise ValueError(
                    f"interval {index} addresses negative bank {bank}"
                )
            if num_banks is not None and bank >= num_banks:
                raise ValueError(
                    f"interval {index} addresses bank {bank}, but the "
                    f"rank has {num_banks} banks"
                )
            if len(rows) > max_act:
                raise ValueError(
                    f"interval {index} has {len(rows)} ACTs on bank "
                    f"{bank}, but at most {max_act} fit in one tREFI"
                )


#: Intervals per chunk handed to the engine by the stream classes. Big
#: enough that the per-chunk loop-restart cost vanishes, small enough
#: that a chunk of distinct intervals stays cache-friendly.
DEFAULT_CHUNK_INTERVALS = 4096


class TraceStream:
    """A lazily produced, bank-addressed activation schedule.

    The streaming counterpart of :class:`RankTrace`: instead of holding
    every interval in memory, a stream *yields* them in bounded chunks,
    so an attack can drive the engine across an arbitrarily long
    horizon — multi-refresh-window Monte-Carlo campaigns, adaptive
    attacks that never materialize their schedule — at O(chunk) memory.
    The engine consumes chunks in order and validates each against the
    same budget rules as a materialized trace
    (:func:`validate_rank_intervals`), and its per-interval work is
    identical either way, so a streamed schedule produces a
    :class:`~repro.sim.results.RankSimResult` bit-identical to running
    the materialized equivalent (pinned by the stream-equivalence
    tests).

    Subclasses implement :meth:`chunks`. ``horizon`` declares the total
    interval count when known (``None`` = unknown until exhausted);
    ``act_budget`` declares the maximum per-bank ACTs any interval
    carries, letting the engine reject an over-budget schedule before
    simulating a single interval. A stream must be re-iterable:
    every :meth:`chunks` call starts a fresh pass.
    """

    name: str = "stream"
    #: Declared total interval count (None = unknown/unbounded).
    horizon: int | None = None
    #: Declared max per-bank ACTs in any one interval (None = undeclared).
    act_budget: int | None = None

    def chunks(self) -> Iterator[Sequence[RankInterval]]:
        """Yield the schedule as successive runs of intervals."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[RankInterval]:
        for chunk in self.chunks():
            yield from chunk

    def materialize(self) -> RankTrace:
        """Collect the whole stream into a :class:`RankTrace`.

        The inverse of :func:`as_trace_stream` — useful for tests and
        short horizons; defeats the purpose for unbounded ones.
        """
        return RankTrace(name=self.name, intervals=list(self))


class MaterializedStream(TraceStream):
    """A :class:`RankTrace` viewed through the stream protocol.

    What :func:`as_trace_stream` wraps an already-built trace in: one
    pass yields the interval list in :data:`DEFAULT_CHUNK_INTERVALS`
    slices (slices of a list of shared interval objects are cheap), and
    the horizon is exact.
    """

    def __init__(self, trace: RankTrace,
                 chunk_intervals: int = DEFAULT_CHUNK_INTERVALS) -> None:
        if chunk_intervals < 1:
            raise ValueError("chunk_intervals must be >= 1")
        self.trace = trace
        self.name = trace.name
        self.horizon = len(trace)
        self.chunk_intervals = chunk_intervals

    def chunks(self) -> Iterator[Sequence[RankInterval]]:
        intervals = self.trace.intervals
        for lo in range(0, len(intervals), self.chunk_intervals):
            yield intervals[lo:lo + self.chunk_intervals]


class CycleStream(TraceStream):
    """A periodic schedule repeated out to a (possibly huge) horizon.

    The streaming form of the ``repeat_interval`` idiom: virtually every
    long-horizon attack is a short super-window played over and over
    (hammer intervals, a decoy-then-hammer cycle, a rotation pattern).
    A materialized ``[interval] * count`` list costs 8 bytes of pointer
    per tREFI — a billion-activation campaign would not fit in RAM —
    while this stream holds only the pattern and yields pointer blocks
    of at most ``chunk_intervals``, so memory is flat in the horizon.

    The same few interval *objects* recur throughout, which is exactly
    what the engine's per-distinct-interval caches want.
    """

    def __init__(
        self,
        name: str,
        pattern: Sequence[RankInterval],
        count: int,
        chunk_intervals: int = DEFAULT_CHUNK_INTERVALS,
    ) -> None:
        if not pattern:
            raise ValueError("pattern must carry at least one interval")
        if count < 0:
            raise ValueError("count must be >= 0")
        if chunk_intervals < len(pattern):
            chunk_intervals = len(pattern)
        self.name = name
        self.pattern = list(pattern)
        self.count = count
        self.horizon = count
        self.act_budget = max(
            (len(rows) for interval in self.pattern
             for _bank, rows in interval.per_bank),
            default=0,
        )
        # Whole pattern repetitions per chunk, so every chunk is a
        # phase-aligned prefix of the cycle.
        self._reps = max(1, chunk_intervals // len(self.pattern))

    def chunks(self) -> Iterator[Sequence[RankInterval]]:
        period = len(self.pattern)
        block = self.pattern * self._reps
        emitted = 0
        while emitted + len(block) <= self.count:
            yield block
            emitted += len(block)
        remainder = self.count - emitted
        if remainder:
            full, partial = divmod(remainder, period)
            yield self.pattern * full + self.pattern[:partial]


class GeneratorStream(TraceStream):
    """A stream over an arbitrary interval generator.

    ``intervals`` is a zero-argument callable returning an iterator of
    :class:`RankInterval` — a generator function, so every
    :meth:`chunks` call restarts the schedule from a clean slate (the
    stream contract). Use this for schedules that are computed on the
    fly (adaptive attacks, randomized placements) rather than periodic;
    give randomized generators their own seeded RNG inside the callable
    so replays are identical.
    """

    def __init__(
        self,
        name: str,
        intervals: Callable[[], Iterator[RankInterval]],
        horizon: int | None = None,
        act_budget: int | None = None,
        chunk_intervals: int = DEFAULT_CHUNK_INTERVALS,
    ) -> None:
        if not callable(intervals):
            raise TypeError(
                "intervals must be a zero-argument callable returning an "
                "iterator (a generator function), so the stream can be "
                "re-iterated"
            )
        if chunk_intervals < 1:
            raise ValueError("chunk_intervals must be >= 1")
        self.name = name
        self._intervals = intervals
        self.horizon = horizon
        self.act_budget = act_budget
        self.chunk_intervals = chunk_intervals

    def chunks(self) -> Iterator[Sequence[RankInterval]]:
        chunk: list[RankInterval] = []
        for interval in self._intervals():
            chunk.append(interval)
            if len(chunk) >= self.chunk_intervals:
                yield chunk
                chunk = []
        if chunk:
            yield chunk


def as_trace_stream(
    trace: "Trace | RankTrace | TraceStream", bank: int = 0
) -> TraceStream:
    """Coerce any trace shape into a :class:`TraceStream`.

    Streams pass through; a :class:`RankTrace` wraps in a
    :class:`MaterializedStream`; a row-only :class:`Trace` lifts onto
    ``bank`` first (the classic lifting seam, interning preserved).
    """
    if isinstance(trace, TraceStream):
        return trace
    if isinstance(trace, RankTrace):
        return MaterializedStream(trace)
    if isinstance(trace, Trace):
        return MaterializedStream(lift_trace(trace, bank))
    raise TypeError(
        f"cannot stream {type(trace).__name__}; expected Trace, "
        f"RankTrace, or TraceStream"
    )


@dataclass
class ChannelTrace:
    """Per-rank activation schedules under one channel clock.

    The channel-level input format: rank ``r``'s schedule is
    ``per_rank[r]`` — a :class:`RankTrace` or a :class:`TraceStream` —
    and the :class:`~repro.sim.engine.ChannelSimulator` marches every
    rank through the shared tREFI clock. Ranks absent from the mapping
    sit idle. REF postponement stays a per-rank flag (each rank has its
    own refresh schedule in DDR5), which is what keeps a channel run
    decomposable into independent rank runs — the property the
    channel-equivalence tests pin.
    """

    name: str
    per_rank: dict[int, "RankTrace | TraceStream"] = field(
        default_factory=dict
    )

    @property
    def num_ranks(self) -> int:
        """Ranks the trace addresses (1 + highest rank index)."""
        return max(self.per_rank, default=-1) + 1

    def ranks_touched(self) -> set[int]:
        return set(self.per_rank)

    def rank_stream(self, rank: int) -> TraceStream:
        """Rank ``rank``'s schedule as a stream (empty if unaddressed)."""
        trace = self.per_rank.get(rank)
        if trace is None:
            return MaterializedStream(RankTrace(name=f"{self.name}[idle]"))
        return as_trace_stream(trace)

    @property
    def horizon(self) -> int | None:
        """Channel horizon: the longest rank's declared horizon
        (``None`` if any rank's is unknown)."""
        horizons = [
            as_trace_stream(trace).horizon
            for trace in self.per_rank.values()
        ]
        if any(h is None for h in horizons):
            return None
        return max(horizons, default=0)
