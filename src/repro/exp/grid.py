"""Declarative experiment grids: (tracker × attack × config) as data.

A grid point names a tracker, an attack pattern, and the engine knobs —
all plain JSON-serialisable values, never live objects — so points can
be fingerprinted for the incremental result store, shipped to worker
processes, and re-derived bit-identically from a base seed.

Since the Scenario API landed, a grid point is just a factored
:class:`~repro.scenario.Scenario`: the specs are re-exported from
:mod:`repro.scenario`, :class:`PointConfig` is the engine-knob slice of
a scenario, and :meth:`ExperimentPoint.scenario` recombines the three
coordinates with a base seed into the canonical object the runner
executes. :meth:`Scenario.sweep <repro.scenario.Scenario.sweep>` builds
grids from a base scenario plus axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import product
from typing import Any, Iterator, Mapping

from ..scenario import AttackSpec, Scenario, TrackerSpec
from ..sim.seeding import stable_hash

__all__ = [
    "SCHEMA_VERSION",
    "AttackSpec",
    "ExperimentGrid",
    "ExperimentPoint",
    "PointConfig",
    "TrackerSpec",
]

#: Bump when the result schema or the seeding scheme changes, so stale
#: store entries are invalidated instead of silently reused.
#: v2: rank-level points (``PointConfig.num_banks``, per-bank metrics).
#: v3: points execute through the Scenario facade (seed streams derive
#: from ``Scenario.task_seed``; ``vectorized``/``concurrent_banks``
#: knobs). v4: channel-level points (``PointConfig.num_ranks``,
#: per-rank metrics for multi-rank points). Older stores still *load*
#: — :meth:`PointConfig.from_payload` is the tolerant shim (a v3
#: payload simply has no ``num_ranks`` key and takes the default of 1,
#: and unknown keys from newer stores are ignored) — but their
#: fingerprints no longer match, so their points re-execute on the
#: next run.
SCHEMA_VERSION = 4

#: The identity classification of :class:`PointConfig`'s fields,
#: enforced statically by ``repro lint`` (rule ``identity-manifest``).
#: A point's fingerprint delegates to the scenario it denotes, so this
#: mirrors the ``Scenario`` entry in
#: :data:`repro.scenario.IDENTITY_MANIFEST` field-for-field: the
#: ``excluded`` knobs (engine-path choices the engine pins
#: bit-identical) never reach the hash, which is why ``sweep`` refuses
#: them as axes. The runtime agreement between the two manifests is
#: pinned by ``tests/lint/test_manifest.py``.
#:
#: Fingerprints are also the store and scheduler *layout* (format v2,
#: PR 10): a result lives in the shard file named by its fingerprint
#: prefix (``store.shard_key``), pending points partition into
#: content-addressed task shards sorted by fingerprint
#: (``shards.plan_shards``), the run journal records
#: planned/running/done per fingerprint, and the ``QueryAPI`` read
#: cache keys on them. Re-keying a fingerprint (any identity-field or
#: SCHEMA_VERSION change) therefore moves the point to a new shard and
#: re-executes it — the single invalidation rule covering execution,
#: storage, and the read path.
IDENTITY_MANIFEST = {
    "PointConfig": {
        "identity": [
            "trh", "intervals", "max_act", "base_row", "num_rows",
            "blast_radius", "allow_postponement", "max_postponed",
            "refi_per_refw", "scaled_timing", "num_banks", "num_ranks",
            "concurrent_banks",
        ],
        "excluded": ["vectorized"],
    },
}


@dataclass(frozen=True)
class PointConfig:
    """Engine and trace knobs for one grid point (JSON-safe).

    This is exactly the grid-able engine-knob slice of a
    :class:`~repro.scenario.Scenario` — every field mirrors the
    scenario field of the same name, and the conversions
    (:meth:`from_scenario`, :meth:`scenario` on the enclosing
    :class:`ExperimentPoint`) are lossless for any scenario without a
    full custom-timing override.

    ``scaled_timing=True`` swaps the real DDR5 timing for the scaled
    Monte-Carlo device whose window holds ``max_act`` ACTs per tREFI —
    the fast regime used by tests and the speedup benchmark.

    ``num_banks > 1`` runs the point on the rank-level engine: the
    attack resolves through the rank registry (row-only attacks are
    auto-interleaved across the banks) and each bank gets its own
    tracker instance seeded from the task seed plus the bank index.
    ``num_ranks > 1`` lifts the point onto the channel engine (one
    rank of per-bank trackers per rank, per-rank derived seeds,
    metrics with a ``per_rank`` level).
    """

    trh: float = 4800.0
    intervals: int = 2000
    max_act: int = 73
    base_row: int = 1000
    num_rows: int = 128 * 1024
    blast_radius: int = 1
    allow_postponement: bool = False
    max_postponed: int = 4
    refi_per_refw: int = 8192
    scaled_timing: bool = False
    num_banks: int = 1
    num_ranks: int = 1
    concurrent_banks: int | None = None
    vectorized: bool | None = None

    def to_payload(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "PointConfig":
        """Rebuild from a payload of any schema generation.

        The loader shim for pre-v3 stores: missing fields (knobs that
        did not exist yet) take their defaults, and unknown fields from
        a newer store are ignored rather than fatal.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "PointConfig":
        """The engine-knob slice of ``scenario``.

        Raises ``ValueError`` for a scenario carrying a full custom
        :class:`~repro.dram.timing.DDR5Timing` override — grid points
        hold only JSON scalars; use ``scaled_timing`` or run such a
        scenario directly through the Session facade.
        """
        if scenario.timing is not None:
            raise ValueError(
                "grid points cannot carry a custom DDR5Timing override; "
                "use scaled_timing, or run the scenario via Session"
            )
        return cls(**{
            f.name: getattr(scenario, f.name) for f in fields(cls)
        })

    def scenario(
        self, tracker: TrackerSpec, attack: AttackSpec, seed: int = 0
    ) -> Scenario:
        """Recombine this config with specs and a base seed."""
        return Scenario(
            tracker=tracker, attack=attack, seed=seed, **self.to_payload()
        )


@dataclass(frozen=True)
class ExperimentPoint:
    """One (tracker, attack, config) coordinate of a grid."""

    tracker: TrackerSpec
    attack: AttackSpec
    config: PointConfig

    def to_payload(self) -> dict:
        return {
            "tracker": self.tracker.to_payload(),
            "attack": self.attack.to_payload(),
            "config": self.config.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ExperimentPoint":
        return cls(
            TrackerSpec.from_payload(payload["tracker"]),
            AttackSpec.from_payload(payload["attack"]),
            PointConfig.from_payload(payload["config"]),
        )

    def scenario(self, base_seed: int = 0) -> Scenario:
        """The canonical :class:`~repro.scenario.Scenario` this point
        denotes under ``base_seed`` (what the runner executes)."""
        return self.config.scenario(self.tracker, self.attack, seed=base_seed)

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "ExperimentPoint":
        """Factor a scenario into grid coordinates (drops the seed —
        grids re-key every point from the run's base seed)."""
        return cls(
            scenario.tracker,
            scenario.attack,
            PointConfig.from_scenario(scenario),
        )

    def fingerprint(self, base_seed: int) -> str:
        """Stable identity of this point's *result*.

        Any change to the tracker, attack, engine knobs, base seed, or
        schema version yields a new fingerprint — which is exactly the
        cache-invalidation rule of the result store. Delegates to the
        scenario fingerprint, wrapped with the exp schema version.
        """
        return stable_hash(
            "exp-point", SCHEMA_VERSION, self.scenario(base_seed).fingerprint()
        )

    def task_seed(self, base_seed: int) -> int:
        """The 64-bit seed this point's random streams derive from."""
        return self.scenario(base_seed).task_seed()


@dataclass
class ExperimentGrid:
    """The cross product of tracker, attack, and config axes.

    ``extra_points`` holds coordinates outside the cross product, for
    sweeps that pair specific trackers with specific attacks instead of
    crossing every axis (they run first, in list order).
    """

    trackers: list[TrackerSpec] = field(default_factory=list)
    attacks: list[AttackSpec] = field(default_factory=list)
    configs: list[PointConfig] = field(default_factory=lambda: [PointConfig()])
    extra_points: list[ExperimentPoint] = field(default_factory=list)

    def __len__(self) -> int:
        return (
            len(self.extra_points)
            + len(self.trackers) * len(self.attacks) * len(self.configs)
        )

    def points(self) -> list[ExperimentPoint]:
        """Expand the grid in a deterministic (row-major) order."""
        return list(self.extra_points) + [
            ExperimentPoint(tracker, attack, config)
            for tracker, attack, config in product(
                self.trackers, self.attacks, self.configs
            )
        ]

    def scenarios(self, base_seed: int = 0) -> list[Scenario]:
        """Every point as a full scenario under ``base_seed``."""
        return [point.scenario(base_seed) for point in self.points()]

    def __iter__(self) -> Iterator[ExperimentPoint]:
        return iter(self.points())
