"""Property pins for the vectorized activation kernel.

The kernel's contract is *exact* equivalence with the scalar path, not
statistical similarity: the dense NumPy oracle must reproduce the
sparse dict oracle event for event (disturbance vectors, peaks, flip
streams), every registry tracker's ``on_activate_batch`` must be
indistinguishable from repeated ``on_activate`` (including RNG
consumption), and the vectorized engine must emit bit-identical
``RankSimResult``s. Hypothesis drives adversarial shapes through all
three layers: adjacent aggressors (the aggressor/victim interleavings
the vector fast path must bail on), thresholds low enough to flip,
table-overflow act streams, and mixed batch/scalar call sequences.
"""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.dram.rowstate import DenseRowDisturbanceModel, RowDisturbanceModel
from repro.sim.engine import EngineConfig, RankSimulator
from repro.sim.trace import RankInterval, RankTrace
from repro.trackers.registry import available_trackers, make_tracker

from tests.property.settings import SLOW_SETTINGS, STANDARD_SETTINGS

NUM_ROWS = 64

# Batches deliberately include out-of-range rows (legal no-op targets),
# adjacent rows, and repeats.
batches = st.lists(
    st.lists(st.integers(-2, NUM_ROWS + 2), min_size=0, max_size=60),
    min_size=1,
    max_size=6,
)


def _flip_stream(model):
    return [(f.row, f.disturbance, f.time_ns) for f in model.flips]


class TestOracleBackendEquivalence:
    """sparse dict == dense NumPy, bit for bit, through mixed op streams."""

    @given(
        batch_list=batches,
        trh=st.one_of(st.integers(1, 30), st.just(10**9)),
        ops=st.lists(st.integers(0, 3), min_size=0, max_size=6),
    )
    @STANDARD_SETTINGS
    def test_disturbance_peak_and_flip_streams_match(
        self, batch_list, trh, ops
    ):
        sparse = RowDisturbanceModel(NUM_ROWS, trh, backend="sparse")
        dense = RowDisturbanceModel(NUM_ROWS, trh, backend="dense")
        assert isinstance(dense, DenseRowDisturbanceModel)
        for index, batch in enumerate(batch_list):
            time_ns = float(index)
            sparse.activate_many(batch, time_ns)
            dense.activate_many(
                np.asarray(batch, dtype=np.intp), time_ns
            )
            op = ops[index % len(ops)] if ops else 0
            if op == 1 and batch:
                sparse.mitigate(batch[0], time_ns)
                dense.mitigate(batch[0], time_ns)
            elif op == 2:
                sparse.refresh_range(index * 4, index * 4 + 8, time_ns)
                dense.refresh_range(index * 4, index * 4 + 8, time_ns)
            elif op == 3:
                sparse.auto_refresh_all(time_ns)
                dense.auto_refresh_all(time_ns)
        for row in range(-1, NUM_ROWS + 1):
            assert sparse.disturbance(row) == dense.disturbance(row)
            assert sparse.peak_disturbance(row) == dense.peak_disturbance(row)
        assert _flip_stream(sparse) == _flip_stream(dense)
        assert sparse.max_disturbance() == dense.max_disturbance()
        assert sparse.most_disturbed_row() == dense.most_disturbed_row()
        assert sorted(sparse.disturbed_rows()) == dense.disturbed_rows()

    @given(
        batch=st.lists(st.integers(0, NUM_ROWS - 1), min_size=1, max_size=80),
        trh=st.integers(1, 25),
        blast_radius=st.integers(1, 2),
    )
    @STANDARD_SETTINGS
    def test_batch_equals_sequential_activates_on_dense(
        self, batch, trh, blast_radius
    ):
        """Dense activate_many == per-act activate (the scalar pin the
        sparse backend already carries, replayed on the array backend)."""
        batched = RowDisturbanceModel(
            NUM_ROWS, trh, blast_radius=blast_radius, backend="dense"
        )
        sequential = RowDisturbanceModel(
            NUM_ROWS, trh, blast_radius=blast_radius, backend="dense"
        )
        batched.activate_many(np.asarray(batch, dtype=np.intp), time_ns=3.0)
        for row in batch:
            sequential.activate(row, time_ns=3.0)
        for row in range(NUM_ROWS):
            assert batched.disturbance(row) == sequential.disturbance(row)
            assert batched.peak_disturbance(row) == sequential.peak_disturbance(
                row
            )
        assert _flip_stream(batched) == _flip_stream(sequential)


class TestTrackerBatchEquivalence:
    """on_activate_batch == repeated on_activate for every registry
    tracker, including RNG stream consumption and refresh boundaries."""

    @pytest.mark.parametrize("name", available_trackers())
    @given(
        batch_list=st.lists(
            st.lists(st.integers(0, 40), min_size=0, max_size=90),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(0, 2**20),
        with_counts=st.booleans(),
        entries=st.integers(1, 8),
    )
    @SLOW_SETTINGS
    def test_batch_equals_scalar_stream(
        self, name, batch_list, seed, with_counts, entries
    ):
        scalar = make_tracker(name, seed=seed)
        batched = make_tracker(name, seed=seed)
        # Shrink the counter-table trackers so overflow/eviction paths
        # (where the batch fast paths must fall back to the scalar
        # loop) are reachable within a few small batches.
        for tracker in (scalar, batched):
            if hasattr(tracker, "num_entries"):
                tracker.num_entries = entries
        for index, batch in enumerate(batch_list):
            for row in batch:
                scalar.on_activate(row)
            rows = np.asarray(batch, dtype=np.intp)
            counts = None
            if with_counts and batch:
                uniq, first, cnt = np.unique(
                    rows, return_index=True, return_counts=True
                )
                order = np.argsort(first, kind="stable")
                counts = (uniq[order], cnt[order])
            batched.on_activate_batch(rows, counts)
            if index % 2 == 1:
                assert scalar.on_refresh() == batched.on_refresh()
        assert scalar.on_refresh() == batched.on_refresh()
        scalar_table = getattr(scalar, "counters", None)
        if scalar_table is not None:
            assert dict(scalar_table) == dict(batched.counters)


class _NaiveGraphene:
    """The pre-offset Misra-Gries reference: decrement-all on overflow.

    Deliberately the seed implementation, kept verbatim as the oracle
    for the lazy global-offset rewrite."""

    def __init__(self, num_entries: int, mitigation_threshold: int) -> None:
        self.num_entries = num_entries
        self.mitigation_threshold = mitigation_threshold
        self.counters: dict[int, int] = {}
        self.pending: list[int] = []

    def on_activate(self, row: int) -> None:
        if row in self.counters:
            self.counters[row] += 1
        elif len(self.counters) < self.num_entries:
            self.counters[row] = 1
        else:
            for key in list(self.counters):
                self.counters[key] -= 1
                if self.counters[key] <= 0:
                    del self.counters[key]
            return
        if self.counters[row] >= self.mitigation_threshold:
            del self.counters[row]
            self.pending.append(row)


class TestGrapheneOffsetRegression:
    """The O(1)-amortized offset table matches the naive decrement-all
    implementation row for row, through overflow and threshold trips."""

    @given(
        acts=st.lists(st.integers(0, 30), min_size=0, max_size=400),
        entries=st.integers(1, 6),
        batched=st.booleans(),
    )
    @STANDARD_SETTINGS
    def test_table_contents_match_naive(self, acts, entries, batched):
        from repro.trackers.graphene import GrapheneTracker

        tracker = GrapheneTracker(trh=40, acts_per_refw=100)  # threshold 10
        tracker.num_entries = entries
        naive = _NaiveGraphene(entries, tracker.mitigation_threshold)
        if batched:
            # Feed in engine-sized chunks through the batch entry point.
            for start in range(0, len(acts), 73):
                tracker.on_activate_batch(
                    np.asarray(acts[start : start + 73], dtype=np.intp)
                )
        else:
            for row in acts:
                tracker.on_activate(row)
        for row in acts:
            naive.on_activate(row)
        assert tracker.counters == naive.counters
        assert [req.row for req in tracker.drain()] == naive.pending
        assert tracker.mitigations_issued == len(naive.pending)


class TestDmqBatchEquivalence:
    """The DMQ wrapper chunks batches at pseudo-refresh boundaries
    exactly as the scalar stream would fall across them."""

    @given(
        batch_list=st.lists(
            st.lists(st.integers(0, 30), min_size=0, max_size=200),
            min_size=1,
            max_size=4,
        ),
        inner=st.sampled_from(["mint", "para", "graphene"]),
        seed=st.integers(0, 2**20),
        max_act=st.integers(1, 73),
    )
    @SLOW_SETTINGS
    def test_batch_equals_scalar_stream(self, batch_list, inner, seed, max_act):
        scalar = make_tracker(inner, seed=seed, dmq=True, max_act=max_act)
        batched = make_tracker(inner, seed=seed, dmq=True, max_act=max_act)
        for index, batch in enumerate(batch_list):
            for row in batch:
                scalar.on_activate(row)
            batched.on_activate_batch(np.asarray(batch, dtype=np.intp))
            assert scalar.num_acts == batched.num_acts
            assert scalar.pseudo_mitigations == batched.pseudo_mitigations
            assert list(scalar.queue) == list(batched.queue)
            if index % 2 == 1:
                assert scalar.on_refresh() == batched.on_refresh()
        assert scalar.on_refresh() == batched.on_refresh()


class TestEngineKernelEquivalence:
    """reference engine == fused march on a rank, bit for bit, at any
    blast radius."""

    @given(
        tracker=st.sampled_from(
            ["mint", "para", "graphene", "prac", "mithril", "none"]
        ),
        num_banks=st.integers(1, 3),
        trh=st.sampled_from([5, 40, 10**9]),
        seed=st.integers(0, 2**20),
        interval_specs=st.lists(
            st.tuples(
                st.lists(
                    st.tuples(st.integers(0, 2), st.integers(0, 2047)),
                    min_size=0,
                    max_size=40,
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=8,
        ),
        allow_postponement=st.booleans(),
        blast_radius=st.sampled_from([1, 2]),
    )
    @SLOW_SETTINGS
    def test_rank_sim_results_bit_identical(
        self,
        tracker,
        num_banks,
        trh,
        seed,
        interval_specs,
        allow_postponement,
        blast_radius,
    ):
        from repro.trackers.registry import bank_tracker_factory

        trace = RankTrace(
            name="prop",
            intervals=[
                RankInterval(
                    tuple((bank % num_banks, row) for bank, row in acts),
                    postpone,
                )
                for acts, postpone in interval_specs
            ],
        )
        results = []
        for vectorized in (False, True):
            simulator = RankSimulator(
                bank_tracker_factory(tracker, base_seed=seed),
                EngineConfig(
                    num_banks=num_banks,
                    trh=trh,
                    num_rows=2048,
                    blast_radius=blast_radius,
                    allow_postponement=allow_postponement,
                    validate_budget=False,
                    vectorized=vectorized,
                ),
            )
            results.append(simulator.run(trace))
        reference_result, fused_result = results
        assert json.dumps(
            asdict(reference_result), sort_keys=True
        ) == json.dumps(asdict(fused_result), sort_keys=True)


class TestFusedChannelEquivalence:
    """fused march == reference engine on a channel, bit for bit.

    The fused march reorders freely across (rank, bank) units and falls
    back to the per-bank paths for anything order-sensitive within a
    unit, so its contract is exact equivalence with the reference
    engine — across every registry tracker, rank count, blast radius,
    streamed and materialized input, empty intervals, and flip-heavy
    thresholds.
    """

    @given(
        tracker=st.sampled_from(
            ["mint", "para", "graphene", "prac", "mithril", "protrr", "none"]
        ),
        num_ranks=st.integers(1, 3),
        num_banks=st.integers(1, 3),
        trh=st.sampled_from([5, 40, 10**9]),
        seed=st.integers(0, 2**20),
        streamed=st.booleans(),
        allow_postponement=st.booleans(),
        blast_radius=st.sampled_from([1, 2]),
        rank_specs=st.lists(  # one list of interval specs per rank
            st.lists(
                st.tuples(
                    st.lists(
                        st.tuples(
                            st.integers(0, 2), st.integers(-2, NUM_ROWS + 2)
                        ),
                        min_size=0,
                        max_size=30,
                    ),
                    st.booleans(),
                ),
                min_size=0,
                max_size=6,
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @SLOW_SETTINGS
    def test_channel_results_bit_identical(
        self,
        tracker,
        num_ranks,
        num_banks,
        trh,
        seed,
        streamed,
        allow_postponement,
        blast_radius,
        rank_specs,
    ):
        from dataclasses import replace

        from repro.sim.engine import ChannelSimulator
        from repro.sim.trace import ChannelTrace, MaterializedStream
        from repro.trackers.registry import channel_tracker_factory

        per_rank = {}
        for rank, specs in enumerate(rank_specs[:num_ranks]):
            trace = RankTrace(
                name=f"r{rank}",
                intervals=[
                    RankInterval(
                        tuple((bank % num_banks, row) for bank, row in acts),
                        postpone,
                    )
                    for acts, postpone in specs
                ],
            )
            per_rank[rank] = (
                MaterializedStream(trace) if streamed else trace
            )
        channel = ChannelTrace(name="prop", per_rank=per_rank)
        base = EngineConfig(
            num_banks=num_banks,
            num_ranks=num_ranks,
            trh=trh,
            num_rows=NUM_ROWS,
            blast_radius=blast_radius,
            allow_postponement=allow_postponement,
            validate_budget=False,
            refi_per_refw=8,
        )
        outputs = []
        for overrides in (
            dict(vectorized=True, backend="numpy"),
            dict(vectorized=False),
        ):
            simulator = ChannelSimulator(
                channel_tracker_factory(tracker, seed=seed),
                replace(base, **overrides),
            )
            result = simulator.run(channel)
            outputs.append(json.dumps(asdict(result), sort_keys=True))
        assert outputs[0] == outputs[1]


def _march_providers():
    """Compiled march providers runnable on this host; the interpreted
    reference is always one of them."""
    from repro.kernels import cext

    names = []
    if cext.available():
        names.append("cext")
    names.append("interpreted")
    return names


class TestCompiledMarchEquivalence:
    """compiled march == numpy march == reference engine, bit for bit.

    The compiled tier only engages on runs of consecutive tREFIs that
    replay the same interval objects, so these pins drive *cyclic*
    channel schedules (each rank replays a couple of shared intervals)
    and lower the kernel's minimum run length to 1 — every qualifying
    step goes through the compiled call, including single-step marches,
    flip-safety bails, and mid-run plan switches. Every available
    provider must agree with both pure-Python engines.
    """

    @pytest.mark.parametrize("provider", _march_providers())
    @given(
        tracker=st.sampled_from(
            ["mint", "para", "graphene", "prac", "mithril", "protrr", "none"]
        ),
        num_ranks=st.integers(1, 3),
        num_banks=st.integers(1, 3),
        trh=st.sampled_from([5, 40, 10**9]),
        seed=st.integers(0, 2**20),
        streamed=st.booleans(),
        allow_postponement=st.booleans(),
        pattern_specs=st.lists(  # a short pattern of interval specs...
            st.tuples(
                st.lists(
                    st.tuples(
                        st.integers(0, 2), st.integers(-2, NUM_ROWS + 2)
                    ),
                    min_size=0,
                    max_size=20,
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=3,
        ),
        cycles=st.integers(1, 12),  # ...each rank replays this often
    )
    @SLOW_SETTINGS
    def test_channel_results_bit_identical_across_backends(
        self,
        provider,
        tracker,
        num_ranks,
        num_banks,
        trh,
        seed,
        streamed,
        allow_postponement,
        pattern_specs,
        cycles,
    ):
        from dataclasses import replace

        from repro.kernels import forced_provider
        from repro.sim.engine import ChannelSimulator, _FusedChannelKernel
        from repro.sim.trace import (
            ChannelTrace,
            CycleStream,
            MaterializedStream,
        )
        from repro.trackers.registry import channel_tracker_factory

        pattern = tuple(
            RankInterval(
                tuple((bank % num_banks, row) for bank, row in acts),
                postpone,
            )
            for acts, postpone in pattern_specs
        )
        count = len(pattern) * cycles

        def make_channel():
            per_rank = {}
            for rank in range(num_ranks):
                if streamed:
                    per_rank[rank] = CycleStream(
                        f"r{rank}", pattern, count
                    )
                else:
                    per_rank[rank] = RankTrace(
                        name=f"r{rank}",
                        intervals=list(pattern) * cycles,
                    )
            return ChannelTrace(name="prop-cycle", per_rank=per_rank)

        base = EngineConfig(
            num_banks=num_banks,
            num_ranks=num_ranks,
            trh=trh,
            num_rows=NUM_ROWS,
            allow_postponement=allow_postponement,
            validate_budget=False,
            refi_per_refw=8,
        )
        outputs = []
        for overrides in (
            dict(vectorized=True, backend="compiled"),
            dict(vectorized=True, backend="numpy"),
            dict(vectorized=False),
        ):
            with forced_provider(provider), pytest.MonkeyPatch.context() as mp:
                # Engage the march on every run, not just long ones.
                mp.setattr(_FusedChannelKernel, "_min_compiled_run", 1)
                simulator = ChannelSimulator(
                    channel_tracker_factory(tracker, seed=seed),
                    replace(base, **overrides),
                )
                result = simulator.run(make_channel())
            outputs.append(json.dumps(asdict(result), sort_keys=True))
        assert outputs[0] == outputs[1] == outputs[2]
