"""The Scenario API: round trips, fingerprints, and the Session facade.

The contract under test:

* ``Scenario.from_payload(s.to_payload()) == s`` for arbitrary
  scenarios (Hypothesis), including through a real JSON encode/decode;
* fingerprints are pure functions of the payload — stable across
  processes and worker counts, distinct per coordinate;
* ``Session`` runs are deterministic and lift to the rank and channel
  engines as the scenario's geometry asks, bit-identical to the
  ``RankSimulator`` runs they wrap for **every** registry tracker.
"""

import gc
import json
import random
import string
import weakref
from dataclasses import asdict, replace

import pytest
from hypothesis import given, strategies as st

from repro.attacks import AttackParams, make_attack
from repro.dram.timing import DDR5Timing
from repro.parallel import fork_map
from repro.scenario import (
    AttackSpec,
    Scenario,
    Session,
    TrackerSpec,
    run_scenario,
)
from repro.sim.engine import EngineConfig, RankSimulator
from repro.sim.montecarlo import MonteCarloResult, scaled_timing
from repro.sim.seeding import stable_seed
from repro.trackers import available_trackers, make_tracker

from ..property.settings import DETERMINISM_SETTINGS, QUICK_SETTINGS
from ..single_bank import run_bank

# The scaled regime: whole-trace runs take milliseconds per tracker.
FAST = dict(
    trh=60.0,
    intervals=64,
    max_act=8,
    num_rows=1024,
    refi_per_refw=64,
    scaled_timing=True,
)


def fast_scenario(tracker="mint", attack="double-sided", **overrides):
    kwargs = {**FAST, **overrides}
    return Scenario(tracker=tracker, attack=attack, seed=7, **kwargs)


# ---------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------

_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
_param_values = st.one_of(
    st.integers(-1000, 1000),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    _names,
    st.lists(st.integers(0, 100), max_size=4),
)
_params = st.dictionaries(
    _names.map(lambda s: f"p_{s}"), _param_values, max_size=3
)

_tracker_specs = st.builds(
    lambda name, dmq, depth, params: TrackerSpec.of(
        name, dmq=dmq, dmq_depth=depth, **params
    ),
    st.sampled_from(["mint", "para", "graphene", "trr", "none"]),
    st.booleans(),
    st.integers(1, 8),
    _params,
)
_attack_specs = st.builds(
    lambda name, params: AttackSpec.of(name, **params),
    st.sampled_from(["single-sided", "double-sided", "decoy", "rank-stripe"]),
    _params,
)
_timings = st.one_of(
    st.none(),
    st.builds(
        DDR5Timing,
        t_refw_ms=st.floats(1.0, 64.0),
        t_refi_ns=st.floats(1000.0, 8000.0),
        t_rc_ns=st.floats(10.0, 60.0),
    ),
)


@st.composite
def scenarios(draw):
    timing = draw(_timings)
    return Scenario(
        tracker=draw(_tracker_specs),
        attack=draw(_attack_specs),
        trh=draw(st.floats(1.0, 1e9, allow_nan=False)),
        intervals=draw(st.integers(0, 10_000)),
        max_act=draw(st.integers(1, 128)),
        base_row=draw(st.integers(0, 100_000)),
        num_rows=draw(st.integers(64, 1 << 20)),
        blast_radius=draw(st.integers(1, 4)),
        allow_postponement=draw(st.booleans()),
        max_postponed=draw(st.integers(1, 8)),
        refi_per_refw=draw(st.integers(16, 8192)),
        scaled_timing=(timing is None and draw(st.booleans())),
        num_banks=draw(st.integers(1, 8)),
        num_ranks=draw(st.integers(1, 4)),
        concurrent_banks=draw(st.one_of(st.none(), st.integers(1, 8))),
        vectorized=draw(st.sampled_from([None, True, False])),
        timing=timing,
        seed=draw(st.integers(0, 2**63 - 1)),
    )


class TestRoundTrip:
    @given(scenario=scenarios())
    @DETERMINISM_SETTINGS
    def test_payload_round_trip(self, scenario):
        """The headline property: payloads are lossless."""
        assert Scenario.from_payload(scenario.to_payload()) == scenario

    @given(scenario=scenarios())
    @DETERMINISM_SETTINGS
    def test_json_round_trip_preserves_identity(self, scenario):
        """Through a real JSON encode/decode — what `repro run` sees —
        the scenario and its fingerprint both survive."""
        clone = Scenario.from_payload(
            json.loads(json.dumps(scenario.to_payload()))
        )
        assert clone == scenario
        assert clone.fingerprint() == scenario.fingerprint()
        assert clone.task_seed() == scenario.task_seed()

    @given(scenario=scenarios())
    @QUICK_SETTINGS
    def test_version_key_tolerated(self, scenario):
        payload = {"version": 1, **scenario.to_payload()}
        assert Scenario.from_payload(payload) == scenario

    def test_unknown_field_rejected(self):
        payload = fast_scenario().to_payload()
        payload["thr"] = 100  # a typo'd "trh" must not pass silently
        with pytest.raises(ValueError, match="thr"):
            Scenario.from_payload(payload)

    def test_string_specs_coerce(self):
        scenario = Scenario(tracker="mint", attack="double-sided")
        assert scenario.tracker == TrackerSpec.of("mint")
        assert scenario.attack == AttackSpec.of("double-sided")

    def test_payload_accepts_string_spec_shorthand(self):
        """A hand-written scenario.json may use the same string
        shorthand the constructor takes."""
        scenario = Scenario.from_payload(
            {"tracker": "mint", "attack": "double-sided", "trh": 300.0}
        )
        assert scenario == Scenario(tracker="mint", attack="double-sided",
                                    trh=300.0)

    def test_payload_rejects_malformed_specs_clearly(self):
        with pytest.raises(ValueError, match="registry name"):
            Scenario.from_payload({"tracker": 7, "attack": "decoy"})

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(tracker="mint", attack="decoy", num_banks=0)
        with pytest.raises(ValueError):
            Scenario(tracker="mint", attack="decoy",
                     scaled_timing=True, timing=DDR5Timing())


class TestFingerprint:
    def test_distinct_per_coordinate(self):
        base = fast_scenario()
        variants = [
            replace(base, trh=61.0),
            replace(base, seed=8),
            replace(base, num_banks=2),
            replace(base, num_ranks=2),
            replace(base, tracker=TrackerSpec.of("para")),
            replace(base, concurrent_banks=2),
        ]
        prints = {scenario.fingerprint() for scenario in variants}
        prints.add(base.fingerprint())
        assert len(prints) == len(variants) + 1

    def test_kernel_choice_is_not_identity(self):
        """`vectorized` is a pure implementation knob: both kernels are
        pinned bit-identical, so it must not re-key streams or caches —
        and the facade must actually deliver identical results."""
        base = fast_scenario(tracker="para")  # RNG-hungry tracker
        scalar = replace(base, vectorized=False)
        assert scalar.fingerprint() == base.fingerprint()
        assert scalar.task_seed() == base.task_seed()
        assert asdict(Session(scalar).run()) == asdict(Session(base).run())

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_stable_across_worker_counts(self, n_workers):
        """The fingerprint is a pure function of the payload: computing
        it in forked workers yields the same digest as inline."""
        scenario = fast_scenario()
        expected = scenario.fingerprint()
        prints = fork_map(
            lambda _index: scenario.fingerprint(),
            range(8),
            n_workers=n_workers,
        )
        assert set(prints) == {expected}

    def test_run_many_bit_identical_across_worker_counts(self):
        scenario = fast_scenario(trh=30.0)
        serial = Session(scenario).run_many(windows=12, n_workers=1)
        pooled = Session(scenario).run_many(windows=12, n_workers=4)
        assert serial == pooled


class TestSessionMatchesEngine:
    """Session is pinned bit-identical to the engine entries it wraps,
    built by hand from live trackers and traces, for every registry
    tracker."""

    @pytest.mark.parametrize("name", available_trackers())
    def test_single_bank_session_matches_bank_run(self, name):
        scenario = fast_scenario(tracker=name)
        facade = Session(scenario).run().per_bank[0]
        direct = run_bank(
            scenario.build_tracker(0),
            scenario.build_trace(),
            trh=scenario.trh,
            timing=scaled_timing(scenario.max_act, scenario.refi_per_refw),
            num_rows=scenario.num_rows,
            refi_per_refw=scenario.refi_per_refw,
        )
        assert asdict(direct) == asdict(facade)

    @pytest.mark.parametrize("name", available_trackers())
    def test_rank_session_matches_rank_simulator(self, name):
        scenario = fast_scenario(
            tracker=name,
            attack=AttackSpec.of("rank-stripe", sides=6),
            num_banks=3,
        )
        facade = Session(scenario).run()
        direct = RankSimulator(
            scenario.tracker_factory(),
            EngineConfig(
                trh=scenario.trh,
                num_banks=scenario.num_banks,
                timing=scaled_timing(
                    scenario.max_act, scenario.refi_per_refw
                ),
                num_rows=scenario.num_rows,
                refi_per_refw=scenario.refi_per_refw,
            ),
        ).run(scenario.build_trace())
        assert asdict(direct) == asdict(facade)

    @pytest.mark.parametrize("name", available_trackers())
    def test_run_many_matches_hand_rolled_windows(self, name):
        """run_many's documented window contract: one window RNG per
        index, threaded through tracker construction, then trace
        construction, into a fresh one-bank run."""
        scenario = fast_scenario(tracker=name, attack="single-sided",
                                 trh=30.0)
        windows = 6
        facade = Session(scenario).run_many(windows=windows)

        failures = mitigations = 0
        for index in range(windows):
            rng = random.Random(
                stable_seed(scenario.task_seed(), "mc-window", index)
            )
            tracker = make_tracker(name, rng=rng, max_act=scenario.max_act)
            trace = make_attack(
                "single-sided",
                AttackParams(
                    max_act=scenario.max_act,
                    intervals=scenario.intervals,
                    base_row=scenario.base_row,
                ),
                rng=rng,
            )
            result = run_bank(
                tracker,
                trace,
                trh=scenario.trh,
                timing=scaled_timing(
                    scenario.max_act, scenario.refi_per_refw
                ),
                num_rows=scenario.num_rows,
                refi_per_refw=scenario.refi_per_refw,
            )
            failures += result.failed
            mitigations += result.mitigations
        assert facade == MonteCarloResult(
            windows=windows, failures=failures, total_mitigations=mitigations
        )


class TestSimulatorLifetime:
    """Finished simulators hold their dense oracle arrays; they must be
    freed by reference counting alone, not left to the cycle collector
    (which a long sweep or MC loop may not run before memory peaks)."""

    @pytest.mark.parametrize("num_ranks", [1, 2])
    def test_session_simulator_dies_with_the_session(self, num_ranks):
        gc.collect()
        gc.disable()
        try:
            session = Session(fast_scenario(num_ranks=num_ranks))
            session.run()
            ref = weakref.ref(session.last_simulator)
            del session
            assert ref() is None
        finally:
            gc.enable()

    def test_run_many_window_simulator_dies_with_its_window(
        self, monkeypatch
    ):
        import repro.sim.montecarlo as montecarlo

        refs = []

        class Recording(montecarlo.RankSimulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(montecarlo, "RankSimulator", Recording)
        gc.collect()
        gc.disable()
        try:
            Session(fast_scenario()).run_many(1)
            assert len(refs) == 1
            assert refs[0]() is None
        finally:
            gc.enable()


class TestSession:
    def test_repeat_runs_bit_identical(self):
        scenario = fast_scenario(tracker="para")
        first = Session(scenario).run()
        second = Session(scenario).run()
        assert asdict(first) == asdict(second)

    def test_trackers_require_a_run(self):
        session = Session(fast_scenario())
        with pytest.raises(RuntimeError):
            session.trackers
        session.run()
        assert len(session.trackers) == 1

    def test_rank_payload_carries_bank_attributed_flips(self):
        """The aggregate payload (and hence the rank CSV row) must not
        under-report flips that the per-bank payloads carry."""
        scenario = fast_scenario(
            tracker="none",
            attack=AttackSpec.of("rank-stripe", sides=6),
            num_banks=2,
            trh=40.0,
        )
        payload = Session(scenario).run().to_payload()
        assert payload["failed"]
        per_bank_flips = sum(len(b["flips"]) for b in payload["per_bank"])
        assert per_bank_flips > 0
        assert len(payload["flips"]) == per_bank_flips
        assert {flip["bank"] for flip in payload["flips"]} <= {0, 1}

        from repro.sim.results import result_csv_rows

        rank_row = result_csv_rows(payload)[0]
        assert rank_row["scope"] == "rank"
        assert rank_row["flips"] == per_bank_flips

    def test_run_scenario_accepts_payloads(self):
        scenario = fast_scenario()
        from_payload = run_scenario(scenario.to_payload())
        from_object = run_scenario(scenario)
        assert asdict(from_payload) == asdict(from_object)

    def test_session_rejects_non_scenarios(self):
        with pytest.raises(TypeError):
            Session({"tracker": "mint"})

    def test_perf_uses_scenario_timing_and_seed(self):
        from repro.perf.runner import evaluate_scenario

        scenario = fast_scenario()
        figure = Session(scenario).perf(workload="mcf_r",
                                        sim_time_ns=200_000.0)
        again = evaluate_scenario(scenario, workload="mcf_r",
                                  sim_time_ns=200_000.0)
        assert figure == again
        assert figure.workload == "mcf_r"
        assert figure.mint == 1.0

    def test_perf_unknown_workload(self):
        with pytest.raises(KeyError):
            Session(fast_scenario()).perf(workload="not-a-workload")


class TestChannelScenario:
    """num_ranks threading: identity rules, Session lift, exp metrics."""

    def test_pre_channel_payloads_keep_their_identity(self):
        """A payload written before the knob existed (no num_ranks key)
        must fingerprint — and seed — exactly like num_ranks=1, so old
        stores, caches, and random streams survive the lift."""
        scenario = fast_scenario()
        assert scenario.num_ranks == 1
        payload = scenario.to_payload()
        del payload["num_ranks"]
        old = Scenario.from_payload(payload)
        assert old == scenario
        assert old.fingerprint() == scenario.fingerprint()
        assert old.task_seed() == scenario.task_seed()
        assert "num_ranks" not in scenario.identity_payload()
        assert replace(scenario, num_ranks=2).identity_payload()[
            "num_ranks"
        ] == 2

    def test_session_lifts_to_channel_result(self):
        from repro.sim.results import ChannelSimResult

        scenario = fast_scenario(
            attack=AttackSpec.of("rank-synchronized", sides=4),
            num_banks=2,
            num_ranks=2,
        )
        assert scenario.is_channel
        result = Session(scenario).run()
        assert isinstance(result, ChannelSimResult)
        assert result.num_ranks == 2
        assert len(result.per_rank) == 2
        # repeat runs are bit-identical (pure function of the scenario)
        assert asdict(result) == asdict(Session(scenario).run())

    def test_channel_attack_name_lifts_even_at_one_rank(self):
        from repro.sim.results import ChannelSimResult

        scenario = fast_scenario(
            attack=AttackSpec.of("rank-rotation"), num_ranks=1
        )
        assert scenario.is_channel
        assert isinstance(Session(scenario).run(), ChannelSimResult)

    def test_rank_zero_tracker_seeds_are_the_pre_channel_streams(self):
        scenario = fast_scenario(num_ranks=2)
        single = replace(scenario, num_ranks=2)
        for bank in range(3):
            assert single.tracker_seed(bank) == single.tracker_seed(
                bank, rank=0
            )
        assert scenario.tracker_seed(0, rank=1) != scenario.tracker_seed(
            0, rank=0
        )

    def test_session_trackers_flatten_rank_major(self):
        scenario = fast_scenario(
            attack=AttackSpec.of("rank-synchronized", sides=4),
            num_banks=2,
            num_ranks=2,
        )
        session = Session(scenario)
        session.run()
        assert len(session.trackers) == 4

    def test_run_many_channel_bit_identical_across_worker_counts(self):
        scenario = fast_scenario(
            attack=AttackSpec.of("rank-synchronized", sides=4),
            num_banks=2,
            num_ranks=2,
            trh=30.0,
        )
        serial = Session(scenario).run_many(windows=8, n_workers=1)
        pooled = Session(scenario).run_many(windows=8, n_workers=4)
        assert serial == pooled

    def test_channel_payload_and_csv_round(self):
        scenario = fast_scenario(
            tracker="none",
            attack=AttackSpec.of("rank-synchronized", sides=4),
            num_banks=2,
            num_ranks=2,
            trh=40.0,
        )
        payload = Session(scenario).run().to_payload()
        assert payload["num_ranks"] == 2
        per_rank_flips = sum(
            len(r["flips"]) for r in payload["per_rank"]
        )
        assert len(payload["flips"]) == per_rank_flips > 0
        assert {f["rank"] for f in payload["flips"]} <= {0, 1}

        from repro.sim.results import result_csv_rows

        rows = result_csv_rows(payload)
        assert rows[0]["scope"] == "channel"
        assert rows[0]["flips"] == per_rank_flips
        scopes = [row["scope"] for row in rows]
        assert scopes.count("rank") == 2
        assert scopes.count("bank") == 4

    def test_channel_runner_result_matches_session(self):
        from repro.exp.grid import ExperimentPoint
        from repro.exp.runner import run_point

        scenario = fast_scenario(
            attack=AttackSpec.of("rank-synchronized", sides=4),
            num_banks=2,
            num_ranks=2,
        )
        point = ExperimentPoint.from_scenario(scenario)
        executed = run_point(point, base_seed=scenario.seed)
        facade = Session(point.scenario(scenario.seed)).run()
        assert executed.metrics == facade.to_payload()


class TestSweep:
    def test_axes_cross_product(self):
        grid = fast_scenario().sweep(
            tracker=["mint", "para"],
            attack=["single-sided", "double-sided"],
            num_banks=[1, 2],
        )
        assert len(grid) == 8
        banks = {p.config.num_banks for p in grid.points()}
        assert banks == {1, 2}

    def test_base_scenario_supplies_unswept_knobs(self):
        grid = fast_scenario(trh=123.0).sweep(tracker=["mint", "trr"])
        assert all(p.config.trh == 123.0 for p in grid.points())
        assert all(p.config.scaled_timing for p in grid.points())

    def test_scalar_axis_means_one_value(self):
        grid = fast_scenario().sweep(tracker="graphene", num_banks=2)
        points = grid.points()
        assert len(points) == 1
        assert points[0].tracker.name == "graphene"
        assert points[0].config.num_banks == 2

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="not_a_knob"):
            fast_scenario().sweep(not_a_knob=[1, 2])

    def test_vectorized_axis_rejected(self):
        """Both kernel choices fingerprint as one point (deliberately),
        so sweeping the knob would silently collide in the store."""
        with pytest.raises(ValueError, match="vectorized"):
            fast_scenario().sweep(vectorized=[False, True])

    def test_custom_timing_not_grid_able(self):
        scenario = Scenario(tracker="mint", attack="decoy",
                            timing=DDR5Timing())
        with pytest.raises(ValueError, match="timing"):
            scenario.sweep(tracker=["mint", "para"])

    def test_sweep_points_execute_through_runner(self):
        from repro.exp import run_grid

        grid = fast_scenario().sweep(tracker=["mint", "none"])
        report = run_grid(grid, base_seed=3, n_workers=1)
        by_tracker = {r.tracker: r for r in report.results}
        assert not by_tracker["mint"].failed
        assert by_tracker["none"].failed


class TestExpIntegration:
    def test_point_scenario_round_trip(self):
        from repro.exp.grid import ExperimentPoint

        scenario = fast_scenario(num_banks=2)
        point = ExperimentPoint.from_scenario(scenario)
        rebuilt = point.scenario(base_seed=scenario.seed)
        assert rebuilt == scenario

    def test_runner_result_matches_session(self):
        """A grid point's metrics are exactly the facade's result."""
        from repro.exp.grid import ExperimentPoint
        from repro.exp.runner import run_point

        scenario = fast_scenario(tracker="para", trh=30.0)
        point = ExperimentPoint.from_scenario(scenario)
        executed = run_point(point, base_seed=scenario.seed)
        facade = Session(point.scenario(scenario.seed)).run()
        assert executed.metrics == facade.per_bank[0].to_payload()

    def test_rank_runner_result_matches_session(self):
        from repro.exp.grid import ExperimentPoint
        from repro.exp.runner import run_point

        scenario = fast_scenario(
            tracker="mint",
            attack=AttackSpec.of("rank-stripe", sides=6),
            num_banks=3,
        )
        point = ExperimentPoint.from_scenario(scenario)
        executed = run_point(point, base_seed=scenario.seed)
        facade = Session(point.scenario(scenario.seed)).run()
        assert executed.metrics == facade.to_payload()
