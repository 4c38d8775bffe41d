"""Backend selection, fallback, and telemetry pins for the compiled tier.

``EngineConfig.backend`` is a pure implementation knob: ``"compiled"``
must fail loudly when no provider exists (or when the reference engine
is selected), ``"auto"`` must fall back to the pure-NumPy fused march
bit-identically, and whatever path executes, the kernel telemetry has
to account for every step.
"""

import json
from dataclasses import asdict, replace

import pytest

from repro import kernels
from repro.kernels import forced_provider
from repro.scenario import Scenario, Session
from repro.sim.engine import ChannelSimulator, EngineConfig, RankSimulator
from repro.sim.trace import ChannelTrace, CycleStream, RankInterval
from repro.trackers.registry import channel_tracker_factory

NUM_ROWS = 64
INTERVALS = 60


def _providers():
    """Every march provider that can run on this host (the interpreted
    reference always can)."""
    from repro.kernels import cext

    names = []
    if cext.available():
        names.append("cext")
    names.append("interpreted")
    return names


def _trace(num_ranks):
    interval = RankInterval.of(
        [(i % 2, 10 + 2 * (i % 5)) for i in range(12)]
    )
    return ChannelTrace(
        name="backend-pin",
        per_rank={
            rank: CycleStream(f"r{rank}", (interval,), INTERVALS)
            for rank in range(num_ranks)
        },
    )


def _config(backend, trh=10**9, num_ranks=2):
    return EngineConfig(
        num_banks=2,
        num_ranks=num_ranks,
        num_rows=NUM_ROWS,
        trh=trh,
        refi_per_refw=8,
        backend=backend,
    )


def _run(tracker, backend, trh=10**9, num_ranks=2):
    simulator = ChannelSimulator(
        channel_tracker_factory(tracker, seed=11),
        _config(backend, trh=trh, num_ranks=num_ranks),
    )
    result = simulator.run(_trace(num_ranks))
    return json.dumps(asdict(result), sort_keys=True), result


class TestSelection:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ChannelSimulator(
                channel_tracker_factory("mint", seed=1),
                _config("fast"),
            )

    def test_compiled_without_provider_raises_clear_error(self):
        with forced_provider("none"):
            with pytest.raises(RuntimeError) as excinfo:
                ChannelSimulator(
                    channel_tracker_factory("mint", seed=1),
                    _config("compiled"),
                )
        message = str(excinfo.value)
        assert "compiled" in message
        assert "C compiler" in message
        assert "auto" in message

    def test_rank_engine_compiled_pin_requires_provider_too(self):
        with forced_provider("none"):
            with pytest.raises(RuntimeError, match="compiled"):
                RankSimulator(
                    lambda bank, rng=None: channel_tracker_factory(
                        "mint", seed=1
                    )(0, bank),
                    _config("compiled", num_ranks=1),
                )

    def test_compiled_rejects_the_reference_engine_on_every_geometry(self):
        """One rule for every geometry: the compiled tier runs under the
        fused march, so pinning it on the reference engine is rejected
        with the same message for a rank and a channel scenario."""
        messages = []
        for num_ranks in (1, 2):
            scenario = Scenario(
                tracker="mint",
                attack="double-sided",
                intervals=4,
                num_ranks=num_ranks,
                vectorized=False,
                backend="compiled",
            )
            with forced_provider("interpreted"):
                with pytest.raises(ValueError, match="compiled") as excinfo:
                    Session(scenario).run()
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "vectorized=False" in messages[0]

    def test_forced_provider_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown provider"):
            forced_provider("fortran")

    def test_provider_resolution_respects_forcing(self):
        with forced_provider("none"):
            assert kernels.provider() is None
            assert not kernels.available()
            assert "forced off" in kernels.unavailable_reason()
        with forced_provider("interpreted"):
            assert kernels.provider() == "interpreted"
            assert kernels.available()
            assert kernels.require_compiled() == "interpreted"


class TestFallbackIdentity:
    def test_auto_without_provider_matches_numpy_bit_for_bit(self):
        base, _ = _run("mint", "numpy")
        with forced_provider("none"):
            fallen_back, result = _run("mint", "auto")
        assert fallen_back == base
        assert result.kernel_stats["backend"] == "numpy"
        assert result.kernel_stats["compiled_steps"] == 0

    @pytest.mark.parametrize("provider", _providers())
    @pytest.mark.parametrize("tracker", ["mint", "none"])
    def test_each_provider_matches_numpy_bit_for_bit(
        self, provider, tracker
    ):
        base, _ = _run(tracker, "numpy")
        with forced_provider(provider):
            compiled, result = _run(tracker, "compiled")
        assert compiled == base
        stats = result.kernel_stats
        assert stats["provider"] == provider
        assert stats["compiled_steps"] > 0

    @pytest.mark.parametrize("provider", _providers())
    def test_flip_heavy_threshold_bails_back_bit_identically(
        self, provider
    ):
        # trh low enough that the march hits its flip-safety bound and
        # hands the remainder to the per-step path mid-run.
        base, _ = _run("mint", "numpy", trh=25.0)
        with forced_provider(provider):
            compiled, result = _run("mint", "compiled", trh=25.0)
        assert compiled == base
        assert result.kernel_stats["compiled_bails"] >= 1


class TestTelemetry:
    def test_every_step_is_accounted_once(self):
        _, result = _run("mint", "auto")
        stats = result.kernel_stats
        assert stats["steps"] == INTERVALS
        assert (
            stats["fast_path_steps"]
            + stats["slow_path_steps"]
            + stats["compiled_steps"]
            == stats["steps"]
        )
        assert (
            stats["plan_cache_hits"] + stats["plan_cache_misses"]
            == stats["steps"]
        )
        assert stats["plan_cache_misses"] == 1  # one distinct interval

    def test_kernel_stats_stay_out_of_the_canonical_payload(self):
        _, result = _run("mint", "auto")
        assert result.kernel_stats is not None
        assert "kernel_stats" not in asdict(result)
        assert "kernel_stats" not in result.to_payload()
        opted_in = result.to_payload(include_kernel_stats=True)
        assert opted_in["kernel_stats"] == result.kernel_stats

    def test_reference_run_attaches_no_stats(self):
        simulator = ChannelSimulator(
            channel_tracker_factory("mint", seed=11),
            EngineConfig(
                num_banks=2, num_ranks=2, num_rows=NUM_ROWS, vectorized=False
            ),
        )
        result = simulator.run(_trace(2))
        assert result.kernel_stats is None
        rank_result = Session(
            Scenario(tracker="mint", attack="double-sided", intervals=4,
                     vectorized=False)
        ).run()
        assert rank_result.kernel_stats is None

    def test_single_rank_run_reports_kernel_stats(self):
        """A rank run marches as a one-rank kernel: its result carries
        the same telemetry side channel as a channel result, outside the
        canonical payload."""
        scenario = Scenario(tracker="mint", attack="double-sided", seed=3)
        result = Session(scenario).run()
        stats = result.kernel_stats
        assert stats["steps"] == result.intervals == scenario.intervals
        reference = Session(replace(scenario, vectorized=False)).run()
        assert result.to_payload() == reference.to_payload()
        assert "kernel_stats" not in result.to_payload()
        opted_in = result.to_payload(include_kernel_stats=True)
        assert opted_in["kernel_stats"] == stats
