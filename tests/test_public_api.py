"""Public-API surface tests: imports, exports, and the README snippet."""

import importlib

import pytest

import repro


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.trackers",
            "repro.dram",
            "repro.attacks",
            "repro.sim",
            "repro.analysis",
            "repro.perf",
            "repro.cli",
            "repro.exp",
        ],
    )
    def test_subpackage_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_readme_quickstart_snippet(self):
        """The exact code shown in README.md must work."""
        from repro import Scenario, Session

        scenario = Scenario(tracker="mint", attack="double-sided",
                            trh=4800, intervals=1000, seed=42)
        result = Session(scenario).run()
        assert not result.failed

    def test_readme_live_tracker_snippet(self):
        """README's live-tracker-object snippet must work too."""
        import random

        from repro import EngineConfig, MintTracker, RankSimulator
        from repro.attacks import AttackParams, double_sided

        tracker = MintTracker(
            max_act=73, transitive=True, rng=random.Random(42)
        )
        trace = double_sided(AttackParams(intervals=1000), victim=1000)
        sim = RankSimulator(lambda _bank: tracker, EngineConfig(trh=4800))
        result = sim.run(trace).per_bank[0]
        assert not result.failed

    def test_docstring_quickstart_snippet(self):
        """The module docstring's example must work too."""
        import random

        from repro import EngineConfig, MintTracker, RankSimulator
        from repro.attacks import AttackParams, double_sided

        tracker = MintTracker(rng=random.Random(1))
        sim = RankSimulator(lambda _bank: tracker, EngineConfig(trh=4800))
        result = sim.run(double_sided(AttackParams(intervals=1000)))
        assert not result.failed


class TestRegistryMatchesZoo:
    def test_every_paper_tracker_constructible(self):
        from repro import available_trackers, make_tracker

        expected = {
            "mint", "para", "indram-para", "parfm", "prct", "mithril",
            "protrr", "trr", "pride", "graphene", "none",
        }
        assert expected <= set(available_trackers())
        for name in expected:
            tracker = make_tracker(name)
            tracker.on_activate(1)
            tracker.on_refresh()
