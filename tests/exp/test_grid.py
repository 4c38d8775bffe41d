"""Grid expansion, fingerprints, and seed derivation."""

import re

import pytest

from repro.exp import (
    AttackSpec,
    ExperimentGrid,
    ExperimentPoint,
    PointConfig,
    TrackerSpec,
)
from repro.scenario import Scenario
from repro.sim.seeding import canonical_json, stable_seed


def small_grid():
    return ExperimentGrid(
        trackers=[TrackerSpec.of("mint"), TrackerSpec.of("para")],
        attacks=[AttackSpec.of("single-sided"), AttackSpec.of("pattern2")],
        configs=[PointConfig(trh=100, intervals=20)],
    )


class TestGridExpansion:
    def test_cross_product_size(self):
        grid = small_grid()
        assert len(grid) == 4
        assert len(grid.points()) == 4

    def test_row_major_order(self):
        labels = [
            (p.tracker.name, p.attack.name) for p in small_grid().points()
        ]
        assert labels == [
            ("mint", "single-sided"),
            ("mint", "pattern2"),
            ("para", "single-sided"),
            ("para", "pattern2"),
        ]

    def test_payload_round_trip(self):
        for point in small_grid().points():
            clone = ExperimentPoint.from_payload(point.to_payload())
            assert clone == point
            assert clone.fingerprint(7) == point.fingerprint(7)


class TestFingerprints:
    def test_stable_across_param_order(self):
        a = TrackerSpec.of("mint", transitive=False, dmq=True)
        b = TrackerSpec.from_payload(
            {"name": "mint", "params": {"transitive": False}, "dmq": True}
        )
        assert a == b

    def test_distinct_per_coordinate(self):
        config = PointConfig(trh=100, intervals=20)
        base = ExperimentPoint(
            TrackerSpec.of("mint"), AttackSpec.of("single-sided"), config
        )
        variants = [
            ExperimentPoint(
                TrackerSpec.of("para"), AttackSpec.of("single-sided"), config
            ),
            ExperimentPoint(
                TrackerSpec.of("mint"), AttackSpec.of("pattern2"), config
            ),
            ExperimentPoint(
                TrackerSpec.of("mint"),
                AttackSpec.of("single-sided"),
                PointConfig(trh=101, intervals=20),
            ),
        ]
        prints = {point.fingerprint(3) for point in variants}
        prints.add(base.fingerprint(3))
        assert len(prints) == 4

    def test_base_seed_changes_fingerprint_and_seed(self):
        point = small_grid().points()[0]
        assert point.fingerprint(1) != point.fingerprint(2)
        assert point.task_seed(1) != point.task_seed(2)

    def test_dmq_depth_in_identity(self):
        config = PointConfig()
        attack = AttackSpec.of("decoy")
        shallow = ExperimentPoint(
            TrackerSpec.of("mint", dmq=True, dmq_depth=1), attack, config
        )
        deep = ExperimentPoint(
            TrackerSpec.of("mint", dmq=True, dmq_depth=4), attack, config
        )
        assert shallow.fingerprint(0) != deep.fingerprint(0)


class TestExtraPoints:
    def test_extra_points_prepended(self):
        grid = small_grid()
        extra = ExperimentPoint(
            TrackerSpec.of("none"),
            AttackSpec.of("decoy"),
            PointConfig(trh=5, intervals=10),
        )
        grid.extra_points.append(extra)
        assert len(grid) == 5
        assert grid.points()[0] == extra

    def test_postponement_preset_is_exactly_the_study(self):
        from repro.exp.presets import postponement_grid

        grid = postponement_grid(depths=(1, 2))
        labels = [(p.tracker.label, p.attack.name) for p in grid.points()]
        assert labels == [
            ("mint", "decoy"),
            ("mint+dmq4", "decoy"),
            ("mint(transitive=False)+dmq1", "decoy-multi"),
            ("mint(transitive=False)+dmq2", "decoy-multi"),
        ]

    def test_benchmark_grid_validates_points(self):
        from repro.exp.presets import scaled_benchmark_grid

        assert len(scaled_benchmark_grid(points=8, windows=1)) == 8
        with pytest.raises(ValueError):
            scaled_benchmark_grid(points=3)
        with pytest.raises(ValueError):
            scaled_benchmark_grid(points=10)


class TestLabels:
    def test_plain(self):
        assert TrackerSpec.of("mint").label == "mint"

    def test_params_and_dmq(self):
        spec = TrackerSpec.of("mint", dmq=True, dmq_depth=2, transitive=False)
        assert spec.label == "mint(transitive=False)+dmq2"


class TestSeeding:
    def test_stable_seed_is_deterministic(self):
        assert stable_seed("a", 1, {"x": 2}) == stable_seed("a", 1, {"x": 2})

    def test_stable_seed_varies(self):
        assert stable_seed("a", 1) != stable_seed("a", 2)

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_canonical_json_rejects_exotic_types(self):
        with pytest.raises(TypeError):
            canonical_json(object())


class TestSchemaV4:
    """The channel bump: num_ranks knob, tolerant v3 loader shim."""

    #: Verbatim v3-era config payload: the thirteen pre-channel knobs,
    #: no ``num_ranks`` key.
    V3_CONFIG = {
        "trh": 300.0,
        "intervals": 120,
        "max_act": 73,
        "base_row": 1000,
        "num_rows": 131072,
        "blast_radius": 1,
        "allow_postponement": False,
        "max_postponed": 4,
        "refi_per_refw": 8192,
        "scaled_timing": False,
        "num_banks": 2,
        "concurrent_banks": None,
        "vectorized": None,
    }

    def test_schema_version_bumped(self):
        from repro.exp import SCHEMA_VERSION

        assert SCHEMA_VERSION == 4

    def test_v3_config_payload_loads_with_default_ranks(self):
        config = PointConfig.from_payload(self.V3_CONFIG)
        assert config.num_ranks == 1
        assert config.num_banks == 2
        # and round-trips forward with the new knob materialized
        assert config.to_payload()["num_ranks"] == 1

    def test_unknown_future_keys_are_ignored(self):
        payload = {**self.V3_CONFIG, "num_channels": 2}
        config = PointConfig.from_payload(payload)
        assert not hasattr(config, "num_channels")

    def test_retired_backend_key_loads_but_scenarios_reject_it(self):
        """Stores written while ``backend`` was an engine knob carry it
        in every point payload: those points still load, while a
        scenario payload naming it fails as any unknown field does."""
        payload = {**self.V3_CONFIG, "num_ranks": 1, "backend": "numpy"}
        config = PointConfig.from_payload(payload)
        assert config == PointConfig.from_payload(self.V3_CONFIG)
        scenario_payload = config.scenario(
            TrackerSpec.of("mint"), AttackSpec.of("double-sided")
        ).to_payload()
        assert "backend" not in scenario_payload
        with pytest.raises(
            ValueError,
            match=re.escape("unknown scenario field(s) ['backend']"),
        ):
            Scenario.from_payload({**scenario_payload, "backend": "numpy"})

    def test_num_ranks_is_a_grid_knob(self):
        point = ExperimentPoint(
            TrackerSpec.of("mint"),
            AttackSpec.of("rank-synchronized"),
            PointConfig(trh=100, intervals=20, num_ranks=2),
        )
        scenario = point.scenario(base_seed=3)
        assert scenario.num_ranks == 2
        assert point.fingerprint(3) != ExperimentPoint(
            point.tracker, point.attack,
            PointConfig(trh=100, intervals=20, num_ranks=1),
        ).fingerprint(3)
