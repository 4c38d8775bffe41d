"""Channel-level engine tests: the equivalence pins.

The two load-bearing guarantees of the channel engine, mirroring the
rank engine's pins one level up:

* **Channel equivalence** — one :class:`ChannelSimulator` run over a
  per-rank schedule set is bit-identical, rank for rank, to N
  independent :class:`RankSimulator` runs under the per-rank seed
  derivation (ranks share only the channel *clock*, never refresh
  schedules, disturbance, or tracker state).
* **Single-rank identity** — a 1-rank channel run of any rank trace is
  the rank-0 wrapping of the :class:`RankSimulator` result, bit for
  bit.
"""

import json
from dataclasses import asdict, replace

import pytest

from repro.attacks import AttackParams, make_channel_attack
from repro.attacks.channel import (
    channel_stripe_decoy,
    rank_rotation,
    rank_synchronized,
)
from repro.attacks.rank import rank_stripe
from repro.sim.engine import ChannelSimulator, EngineConfig, RankSimulator
from repro.sim.trace import ChannelTrace, RankInterval, RankTrace
from repro.trackers.registry import (
    available_trackers,
    bank_tracker_factory,
    channel_tracker_factory,
)

CONFIG_KWARGS = dict(trh=200.0, num_rows=4096, refi_per_refw=64)


def _canonical(result) -> str:
    return json.dumps(asdict(result), sort_keys=True)


def _channel_trace(num_ranks):
    """Distinct per-rank schedules (different rows, lengths, shapes)."""
    per_rank = {}
    for rank in range(num_ranks):
        intervals = [
            RankInterval.of([(0, 16 + 8 * rank + (i % 3)), (1, 400 + rank)])
            for i in range(120 + 30 * rank)
        ]
        per_rank[rank] = RankTrace(f"rank{rank}-sched", intervals)
    return ChannelTrace(name="mixed", per_rank=per_rank)


class TestChannelEquivalence:
    @pytest.mark.parametrize("tracker", available_trackers())
    def test_channel_run_equals_independent_rank_runs(self, tracker):
        """The headline pin: N independent rank runs == one channel
        run, bit for bit, for every registry tracker — using exactly
        the per-rank seed derivation the channel factory applies."""
        num_ranks = 3
        trace = _channel_trace(num_ranks)
        factory = channel_tracker_factory(tracker, base_seed=13, max_act=8)
        config = EngineConfig(num_banks=2, **CONFIG_KWARGS)

        channel = ChannelSimulator(
            factory, replace(config, num_ranks=num_ranks)
        )
        result = channel.run(trace)

        assert result.num_ranks == num_ranks
        for rank in range(num_ranks):
            independent = RankSimulator(
                bank_tracker_factory(
                    tracker, base_seed=factory.rank_seed(rank), max_act=8
                ),
                config,
            ).run(trace.per_rank[rank])
            assert _canonical(result.per_rank[rank]) == _canonical(
                independent
            ), f"rank {rank} diverged for tracker {tracker!r}"

    def test_single_rank_channel_is_rank_run(self):
        """A 1-rank ChannelSimulator run of a rank trace is
        bit-identical to a RankSimulator run."""
        params = AttackParams(max_act=8, intervals=200, base_row=64)
        trace = rank_stripe(6, 2, params)
        config = EngineConfig(num_banks=2, **CONFIG_KWARGS)
        factory = channel_tracker_factory("mint", base_seed=7, max_act=8)

        rank_result = RankSimulator(
            bank_tracker_factory(
                "mint", base_seed=factory.rank_seed(0), max_act=8
            ),
            config,
        ).run(trace)
        channel_result = ChannelSimulator(factory, config).run(trace)

        assert channel_result.num_ranks == 1
        assert _canonical(channel_result.per_rank[0]) == _canonical(
            rank_result
        )
        assert channel_result.demand_acts == rank_result.demand_acts
        assert channel_result.mitigations == rank_result.mitigations
        assert channel_result.failed == rank_result.failed

    def test_streamed_channel_attack_equals_materialized(self):
        """Channel attacks emit streams; materializing them first must
        not change a single bit."""
        params = AttackParams(max_act=8, intervals=160, base_row=64)
        trace = channel_stripe_decoy(500, 3, params, num_banks=2)
        materialized = ChannelTrace(
            name=trace.name,
            per_rank={
                rank: trace.rank_stream(rank).materialize()
                for rank in trace.per_rank
            },
        )
        config = EngineConfig(
            num_banks=2, num_ranks=3, allow_postponement=True, **CONFIG_KWARGS
        )

        def run(t):
            return ChannelSimulator(
                channel_tracker_factory("mint", base_seed=5, max_act=8),
                config,
            ).run(t)

        assert _canonical(run(trace)) == _canonical(run(materialized))


class TestChannelSimulatorContract:
    def test_rejects_trace_addressing_missing_rank(self):
        trace = _channel_trace(3)
        sim = ChannelSimulator(
            channel_tracker_factory("mint", base_seed=1, max_act=8),
            EngineConfig(
                num_banks=2, num_ranks=2, **CONFIG_KWARGS
            ),
        )
        with pytest.raises(ValueError, match="addresses rank 2"):
            sim.run(trace)

    def test_materialized_traces_validate_before_any_execution(self):
        """An over-budget interval deep in a materialized channel trace
        must raise before any rank absorbs a single interval — the same
        validate-before-execute contract the rank engine gives."""
        deep_bad = RankTrace(
            "late-bad",
            [RankInterval.of([(0, 9)])] * 5000
            + [RankInterval.of([(0, r) for r in range(200)])],
        )
        sim = ChannelSimulator(
            channel_tracker_factory("mint", base_seed=1, max_act=8),
            EngineConfig(
                num_banks=2, num_ranks=2, **CONFIG_KWARGS
            ),
        )
        with pytest.raises(ValueError, match="interval 5000"):
            sim.run(ChannelTrace(name="bad", per_rank={0: deep_bad}))
        assert all(rank.intervals == 0 for rank in sim.ranks)
        assert all(
            rank.bank_demand_acts == [0, 0] for rank in sim.ranks
        )

    def test_rejects_reuse_across_runs(self):
        """Tracker, oracle, and counter state accumulate across runs;
        a second ``run`` must raise instead of silently mixing windows."""
        trace = _channel_trace(2)
        sim = ChannelSimulator(
            channel_tracker_factory("mint", base_seed=1, max_act=8),
            EngineConfig(
                num_banks=2, num_ranks=2, **CONFIG_KWARGS
            ),
        )
        first = sim.run(trace)
        assert first.intervals > 0
        with pytest.raises(RuntimeError, match="already run"):
            sim.run(trace)
        # The rejected run left every rank untouched.
        assert all(r.intervals > 0 for r in sim.ranks)

    def test_materialized_schedules_validate_exactly_once(self, monkeypatch):
        """The upfront whole-trace validation must not be repeated
        chunk-by-chunk during the march (the old double-validation)."""
        import repro.sim.engine as engine_mod
        import repro.sim.trace as trace_mod

        calls = {"upfront": 0, "chunk": 0}
        real = trace_mod.validate_rank_intervals

        def counting_upfront(*args, **kwargs):
            calls["upfront"] += 1
            return real(*args, **kwargs)

        def counting_chunk(*args, **kwargs):
            calls["chunk"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(
            trace_mod, "validate_rank_intervals", counting_upfront
        )
        monkeypatch.setattr(
            engine_mod, "validate_rank_intervals", counting_chunk
        )
        num_ranks = 2
        sim = ChannelSimulator(
            channel_tracker_factory("mint", base_seed=1, max_act=8),
            EngineConfig(
                num_banks=2, num_ranks=num_ranks, **CONFIG_KWARGS
            ),
        )
        sim.run(_channel_trace(num_ranks))
        # One whole-trace pass per addressed rank, zero re-validation
        # during execution.
        assert calls["upfront"] == num_ranks
        assert calls["chunk"] == 0

    def test_cycle_streams_validate_pattern_not_horizon(self, monkeypatch):
        """A CycleStream produces only its pattern's interval objects,
        so validation runs once per rank over the pattern — not over
        every interval of a (possibly huge) horizon."""
        import repro.sim.engine as engine_mod

        calls = []
        real = engine_mod.validate_rank_intervals

        def counting(intervals, *args, **kwargs):
            calls.append(len(intervals))
            return real(intervals, *args, **kwargs)

        monkeypatch.setattr(
            engine_mod, "validate_rank_intervals", counting
        )
        from repro.sim.trace import CycleStream

        num_ranks = 2
        interval = RankInterval.of([(0, 9), (1, 11)])
        trace = ChannelTrace(
            name="cycled",
            per_rank={
                rank: CycleStream(f"r{rank}", (interval,), 5000)
                for rank in range(num_ranks)
            },
        )
        sim = ChannelSimulator(
            channel_tracker_factory("mint", base_seed=1, max_act=8),
            EngineConfig(
                num_banks=2, num_ranks=num_ranks, **CONFIG_KWARGS
            ),
        )
        sim.run(trace)
        # One pattern-sized pass per rank; never the 5000-interval
        # horizon.
        assert calls == [1] * num_ranks

    def test_cycle_stream_over_budget_rejected_upfront(self):
        """The pattern-once validation preserves fail-fast with the
        chunk-wise error message."""
        from repro.sim.trace import CycleStream

        bad = RankInterval.of([(9, 1)])  # bank out of range
        sim = ChannelSimulator(
            channel_tracker_factory("mint", base_seed=1, max_act=8),
            EngineConfig(
                num_banks=2, num_ranks=1, **CONFIG_KWARGS
            ),
        )
        trace = ChannelTrace(
            name="bad-bank",
            per_rank={0: CycleStream("bad-bank", (bad,), 1000)},
        )
        with pytest.raises(ValueError, match="interval 0 addresses bank 9"):
            sim.run(trace)
        assert all(rank.intervals == 0 for rank in sim.ranks)

    def test_over_budget_trace_rejected_before_any_interval(self):
        """Fail-fast is preserved with single validation: an over-budget
        interval anywhere in a materialized schedule raises before any
        rank executes anything."""
        bad = RankTrace(
            "bad",
            [RankInterval.of([(0, 9)])] * 10
            + [RankInterval.of([(0, r) for r in range(500)])],
        )
        sim = ChannelSimulator(
            channel_tracker_factory("mint", base_seed=1, max_act=8),
            EngineConfig(
                num_banks=2, num_ranks=1, **CONFIG_KWARGS
            ),
        )
        with pytest.raises(ValueError, match="interval 10"):
            sim.run(ChannelTrace(name="bad", per_rank={0: bad}))
        assert all(rank.intervals == 0 for rank in sim.ranks)
        assert all(rank.bank_demand_acts == [0, 0] for rank in sim.ranks)

    def test_rank_simulator_rejects_multi_rank_config(self):
        with pytest.raises(ValueError, match="ChannelSimulator"):
            RankSimulator(
                bank_tracker_factory("mint", base_seed=1),
                EngineConfig(num_ranks=2),
            )

    def test_idle_ranks_report_empty_results(self):
        sim = ChannelSimulator(
            channel_tracker_factory("mint", base_seed=1, max_act=8),
            EngineConfig(
                num_banks=2, num_ranks=2, **CONFIG_KWARGS
            ),
        )
        trace = RankTrace("solo", [RankInterval.of([(0, 9)])] * 16)
        result = sim.run(trace)  # rank-scoped input lands on rank 0
        assert result.per_rank[0].demand_acts == 16
        assert result.per_rank[1].demand_acts == 0
        assert result.per_rank[1].intervals == 0
        assert result.intervals == 16

    def test_synchronized_attack_sums_rank_results(self):
        params = AttackParams(max_act=8, intervals=100, base_row=64)
        trace = rank_synchronized(4, 2, params, num_banks=2)
        result = ChannelSimulator(
            channel_tracker_factory("mint", base_seed=3, max_act=8),
            EngineConfig(num_banks=2, num_ranks=2, **CONFIG_KWARGS),
        ).run(trace)
        assert result.num_ranks == 2
        assert result.demand_acts == sum(
            r.demand_acts for r in result.per_rank
        )

    def test_rotation_covers_every_interval_exactly_once(self):
        from repro.attacks.classic import double_sided

        base = double_sided(AttackParams(max_act=8, intervals=90,
                                         base_row=64))
        trace = rank_rotation(base, 3)
        total = sum(
            trace.rank_stream(rank).materialize().total_acts
            for rank in range(3)
        )
        assert total == base.total_acts

    def test_make_channel_attack_replicates_unknown_scoped_names(self):
        params = AttackParams(max_act=8, intervals=60, base_row=64)
        trace = make_channel_attack(
            "double-sided", params, num_ranks=2, num_banks=1
        )
        streams = [trace.rank_stream(rank).materialize() for rank in (0, 1)]
        assert streams[0].total_acts == streams[1].total_acts > 0
