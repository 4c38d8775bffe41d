"""Result records produced by the security simulation engine.

The records nest like the hardware: :class:`SimResult` (one bank),
:class:`RankSimResult` (one rank of banks), :class:`ChannelSimResult`
(one channel of ranks). All carry their own canonical JSON serialisation
(:meth:`SimResult.to_payload`, :meth:`RankSimResult.to_payload`) — the
single source the experiment store, the CLI's ``--format json`` export,
and the determinism tests all read from — plus a shared flat CSV
rendering (:func:`result_csv_rows`). The system-level MTTF conversion
(:func:`system_mttf_years`) lives here too, folded in from the retired
``repro.sim.rank`` compatibility module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..constants import CONCURRENT_BANKS
from ..dram.rowstate import FlipEvent


@dataclass
class SimResult:
    """Outcome of running one trace against one tracker."""

    tracker: str
    trace: str
    intervals: int
    demand_acts: int
    refreshes: int
    mitigations: int
    transitive_mitigations: int
    pseudo_mitigations: int
    flips: list[FlipEvent]
    max_disturbance: float
    most_disturbed_row: int | None
    max_unmitigated: dict[int, float] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        """True if any row crossed the Rowhammer threshold."""
        return bool(self.flips)

    @property
    def mitigation_rate(self) -> float:
        """Mitigations per refresh (at most 1 for in-DRAM trackers)."""
        if self.refreshes == 0:
            return 0.0
        return self.mitigations / self.refreshes

    def summary(self) -> str:
        status = "FLIP" if self.failed else "ok"
        return (
            f"[{status}] {self.tracker} vs {self.trace}: "
            f"{self.demand_acts} ACTs / {self.intervals} tREFI, "
            f"{self.mitigations} mitigations "
            f"({self.transitive_mitigations} transitive), "
            f"max disturbance {self.max_disturbance:.0f}"
        )

    def to_payload(self) -> dict:
        """Flatten into JSON-safe metrics (the store/export format)."""
        return {
            "tracker": self.tracker,
            "trace": self.trace,
            "intervals": self.intervals,
            "demand_acts": self.demand_acts,
            "refreshes": self.refreshes,
            "mitigations": self.mitigations,
            "transitive_mitigations": self.transitive_mitigations,
            "pseudo_mitigations": self.pseudo_mitigations,
            "failed": self.failed,
            "flips": [
                {"row": flip.row, "disturbance": flip.disturbance,
                 "time_ns": flip.time_ns}
                for flip in self.flips
            ],
            "max_disturbance": self.max_disturbance,
            "most_disturbed_row": self.most_disturbed_row,
            "max_unmitigated": {
                str(row): value
                for row, value in sorted(self.max_unmitigated.items())
            },
        }


@dataclass
class RankSimResult:
    """Outcome of running one trace against a rank of per-bank trackers.

    Carries one :class:`SimResult` per bank plus the rank-level
    aggregates; also serves as the result type of the legacy per-bank
    fan-out API (``RankResult`` is an alias, and the legacy
    ``RankResult(per_bank=...)`` construction still works — the
    rank-level fields default to empty and derive nothing from it).
    """

    trace: str = ""
    intervals: int = 0
    refreshes: int = 0
    per_bank: list[SimResult] = field(default_factory=list)

    #: Kernel-path telemetry attached by fused rank runs; the same side
    #: channel as :attr:`ChannelSimResult.kernel_stats`.
    kernel_stats = None

    @property
    def num_banks(self) -> int:
        return len(self.per_bank)

    @property
    def tracker(self) -> str:
        """The tracker family (per-bank instances share the name)."""
        names = list(dict.fromkeys(r.tracker for r in self.per_bank))
        return names[0] if len(names) == 1 else ",".join(names)

    @property
    def demand_acts(self) -> int:
        return sum(r.demand_acts for r in self.per_bank)

    @property
    def mitigations(self) -> int:
        return sum(r.mitigations for r in self.per_bank)

    #: Legacy name from the per-bank fan-out API.
    total_mitigations = mitigations

    @property
    def transitive_mitigations(self) -> int:
        return sum(r.transitive_mitigations for r in self.per_bank)

    @property
    def pseudo_mitigations(self) -> int:
        return sum(r.pseudo_mitigations for r in self.per_bank)

    @property
    def flips(self) -> list[FlipEvent]:
        return [flip for r in self.per_bank for flip in r.flips]

    @property
    def failed_banks(self) -> list[int]:
        return [bank for bank, r in enumerate(self.per_bank) if r.failed]

    @property
    def failed(self) -> bool:
        return bool(self.failed_banks)

    @property
    def any_flip(self) -> bool:
        return self.failed

    @property
    def max_disturbance(self) -> float:
        return max((r.max_disturbance for r in self.per_bank), default=0.0)

    def bank(self, index: int) -> SimResult:
        return self.per_bank[index]

    def summary(self) -> str:
        status = "FLIP" if self.failed else "ok"
        lines = [
            f"[{status}] {self.tracker} vs {self.trace} "
            f"({self.num_banks} banks): {self.demand_acts} ACTs / "
            f"{self.intervals} tREFI, {self.mitigations} mitigations, "
            f"failed banks {self.failed_banks or 'none'}"
        ]
        for bank, result in enumerate(self.per_bank):
            bank_status = "FLIP" if result.failed else "ok"
            lines.append(
                f"  bank {bank}: [{bank_status}] "
                f"{result.demand_acts} ACTs, "
                f"{result.mitigations} mitigations, "
                f"max disturbance {result.max_disturbance:.0f}"
            )
        return "\n".join(lines)

    def to_payload(self, include_kernel_stats: bool = False) -> dict:
        """Flatten into JSON-safe metrics.

        Rank-level aggregates at the top level (so single-bank
        consumers of ``demand_acts``/``mitigations``/``failed`` keep
        working), per-bank :meth:`SimResult.to_payload` dicts under
        ``per_bank``, and a row-wise maximum of the unmitigated-run
        counters so the Table-IV accessor works on rank results too.
        ``include_kernel_stats`` works as on
        :meth:`ChannelSimResult.to_payload`.
        """
        merged: dict[int, float] = {}
        for bank_result in self.per_bank:
            for row, value in bank_result.max_unmitigated.items():
                if value > merged.get(row, 0):
                    merged[row] = value
        payload = {
            "tracker": self.tracker,
            "trace": self.trace,
            "intervals": self.intervals,
            "num_banks": self.num_banks,
            "demand_acts": self.demand_acts,
            "refreshes": self.refreshes,
            "mitigations": self.mitigations,
            "transitive_mitigations": self.transitive_mitigations,
            "pseudo_mitigations": self.pseudo_mitigations,
            "failed": self.failed,
            "failed_banks": self.failed_banks,
            # Rank-wide flip events, each attributed to its bank (the
            # per-bank payloads carry the same events without the bank
            # key; the aggregate CSV row counts these).
            "flips": [
                {"bank": bank, "row": flip.row,
                 "disturbance": flip.disturbance, "time_ns": flip.time_ns}
                for bank, result in enumerate(self.per_bank)
                for flip in result.flips
            ],
            "max_disturbance": self.max_disturbance,
            "max_unmitigated": {
                str(row): value for row, value in sorted(merged.items())
            },
            "per_bank": [r.to_payload() for r in self.per_bank],
        }
        if include_kernel_stats and self.kernel_stats is not None:
            payload["kernel_stats"] = dict(self.kernel_stats)
        return payload


@dataclass
class ChannelSimResult:
    """Outcome of running a channel schedule against N ranks of trackers.

    Carries one :class:`RankSimResult` per rank plus channel-level
    aggregates. ``intervals`` is the shared channel clock (the longest
    rank's interval count); per-rank counters live on the nested
    results, and every aggregate here is a plain sum/merge over them —
    the channel introduces no coupling of its own (ranks refresh
    independently), which is what lets per-rank results compose into
    channel-level MTTF accounting.
    """

    trace: str = ""
    intervals: int = 0
    per_rank: list[RankSimResult] = field(default_factory=list)

    #: Kernel-path telemetry attached by fused channel runs (see
    #: ``_FusedChannelKernel.stats``): fast/slow/compiled step counts
    #: and plan-cache traffic. Deliberately a class attribute, NOT a
    #: dataclass field — ``dataclasses.asdict`` and ``to_payload`` stay
    #: backend-independent, which is what the bit-identity pins compare.
    kernel_stats = None

    @property
    def num_ranks(self) -> int:
        return len(self.per_rank)

    @property
    def num_banks(self) -> int:
        """Banks per rank (ranks are homogeneous)."""
        return max((r.num_banks for r in self.per_rank), default=0)

    @property
    def tracker(self) -> str:
        """The tracker family (per-rank instances share the name)."""
        names = list(dict.fromkeys(r.tracker for r in self.per_rank))
        return names[0] if len(names) == 1 else ",".join(names)

    @property
    def demand_acts(self) -> int:
        return sum(r.demand_acts for r in self.per_rank)

    @property
    def refreshes(self) -> int:
        return sum(r.refreshes for r in self.per_rank)

    @property
    def mitigations(self) -> int:
        return sum(r.mitigations for r in self.per_rank)

    @property
    def transitive_mitigations(self) -> int:
        return sum(r.transitive_mitigations for r in self.per_rank)

    @property
    def pseudo_mitigations(self) -> int:
        return sum(r.pseudo_mitigations for r in self.per_rank)

    @property
    def flips(self) -> list[FlipEvent]:
        return [flip for r in self.per_rank for flip in r.flips]

    @property
    def failed_ranks(self) -> list[int]:
        return [rank for rank, r in enumerate(self.per_rank) if r.failed]

    @property
    def failed_banks(self) -> list[tuple[int, int]]:
        """Failed ``(rank, bank)`` coordinates across the channel."""
        return [
            (rank, bank)
            for rank, r in enumerate(self.per_rank)
            for bank in r.failed_banks
        ]

    @property
    def failed(self) -> bool:
        return bool(self.failed_ranks)

    @property
    def any_flip(self) -> bool:
        return self.failed

    @property
    def max_disturbance(self) -> float:
        return max((r.max_disturbance for r in self.per_rank), default=0.0)

    def rank(self, index: int) -> RankSimResult:
        return self.per_rank[index]

    def bank(self, rank: int, bank: int) -> SimResult:
        return self.per_rank[rank].per_bank[bank]

    def summary(self) -> str:
        status = "FLIP" if self.failed else "ok"
        lines = [
            f"[{status}] {self.tracker} vs {self.trace} "
            f"({self.num_ranks} ranks x {self.num_banks} banks): "
            f"{self.demand_acts} ACTs / {self.intervals} tREFI, "
            f"{self.mitigations} mitigations, "
            f"failed ranks {self.failed_ranks or 'none'}"
        ]
        for rank, result in enumerate(self.per_rank):
            rank_status = "FLIP" if result.failed else "ok"
            lines.append(
                f"  rank {rank}: [{rank_status}] "
                f"{result.demand_acts} ACTs, "
                f"{result.mitigations} mitigations, "
                f"failed banks {result.failed_banks or 'none'}"
            )
        return "\n".join(lines)

    def to_payload(self, include_kernel_stats: bool = False) -> dict:
        """Flatten into JSON-safe metrics.

        Channel-level aggregates at the top level (so consumers of
        ``demand_acts``/``mitigations``/``failed`` keep working
        unchanged on channel results), per-rank
        :meth:`RankSimResult.to_payload` dicts under ``per_rank``, and
        the rank-attributed flip events plus a row-wise maximum of the
        unmitigated-run counters, mirroring the rank payload shape one
        level up.

        ``include_kernel_stats=True`` appends the fused kernel's path
        telemetry (when the run attached any) under ``kernel_stats`` —
        opt-in because the default payload is the canonical form the
        determinism and backend bit-identity pins compare.
        """
        merged: dict[int, float] = {}
        for rank_result in self.per_rank:
            for bank_result in rank_result.per_bank:
                for row, value in bank_result.max_unmitigated.items():
                    if value > merged.get(row, 0):
                        merged[row] = value
        payload = {
            "tracker": self.tracker,
            "trace": self.trace,
            "intervals": self.intervals,
            "num_ranks": self.num_ranks,
            "num_banks": self.num_banks,
            "demand_acts": self.demand_acts,
            "refreshes": self.refreshes,
            "mitigations": self.mitigations,
            "transitive_mitigations": self.transitive_mitigations,
            "pseudo_mitigations": self.pseudo_mitigations,
            "failed": self.failed,
            "failed_ranks": self.failed_ranks,
            "failed_banks": [list(pair) for pair in self.failed_banks],
            "flips": [
                {"rank": rank, "bank": bank, "row": flip.row,
                 "disturbance": flip.disturbance, "time_ns": flip.time_ns}
                for rank, rank_result in enumerate(self.per_rank)
                for bank, bank_result in enumerate(rank_result.per_bank)
                for flip in bank_result.flips
            ],
            "max_disturbance": self.max_disturbance,
            "max_unmitigated": {
                str(row): value for row, value in sorted(merged.items())
            },
            "per_rank": [r.to_payload() for r in self.per_rank],
        }
        if include_kernel_stats and self.kernel_stats is not None:
            payload["kernel_stats"] = dict(self.kernel_stats)
        return payload


#: Column order of the flat CSV export (shared by ``repro run`` and
#: ``repro exp run``).
RESULT_CSV_COLUMNS = (
    "scope", "rank", "bank", "tracker", "trace", "intervals", "num_ranks",
    "num_banks", "demand_acts", "refreshes", "mitigations",
    "transitive_mitigations", "pseudo_mitigations", "failed", "flips",
    "max_disturbance",
)


def _csv_row(
    payload: Mapping[str, Any],
    scope: str,
    bank,
    rank="",
    num_ranks: int | None = None,
    num_banks: int | None = None,
) -> dict:
    # ``num_ranks``/``num_banks`` carry the *enclosing* geometry for
    # payload scopes that do not record it themselves (a bank payload
    # knows neither; a rank payload knows only its bank count), so a
    # multi-rank export renders consistent geometry columns on every
    # row instead of bank rows falling back to 1/1.
    return {
        "scope": scope,
        "rank": rank,
        "bank": bank,
        "tracker": payload.get("tracker", ""),
        "trace": payload.get("trace", ""),
        "intervals": payload.get("intervals", 0),
        "num_ranks": payload.get("num_ranks", 1 if num_ranks is None else num_ranks),
        "num_banks": payload.get("num_banks", 1 if num_banks is None else num_banks),
        "demand_acts": payload.get("demand_acts", 0),
        "refreshes": payload.get("refreshes", 0),
        "mitigations": payload.get("mitigations", 0),
        "transitive_mitigations": payload.get("transitive_mitigations", 0),
        "pseudo_mitigations": payload.get("pseudo_mitigations", 0),
        "failed": payload.get("failed", False),
        "flips": len(payload.get("flips", [])),
        "max_disturbance": payload.get("max_disturbance", 0.0),
    }


def result_csv_rows(payload: Mapping[str, Any]) -> list[dict]:
    """Flat CSV rows for one result payload.

    Accepts a :meth:`SimResult.to_payload` dict (one ``bank`` row), a
    :meth:`RankSimResult.to_payload` dict (one aggregate ``rank`` row
    followed by one row per bank), or a
    :meth:`ChannelSimResult.to_payload` dict (one ``channel`` row, then
    each rank's rows with the ``rank`` column filled in). Implemented
    once here so every exporter renders identical columns.
    """
    if "per_rank" in payload:
        rows = [_csv_row(payload, scope="channel", bank="")]
        channel_ranks = payload.get("num_ranks", len(payload["per_rank"]))
        for rank, rank_payload in enumerate(payload["per_rank"]):
            rank_banks = rank_payload.get(
                "num_banks", len(rank_payload.get("per_bank", []))
            )
            rows.append(_csv_row(rank_payload, scope="rank", bank="",
                                 rank=rank, num_ranks=channel_ranks))
            rows.extend(
                _csv_row(bank_payload, scope="bank", bank=bank, rank=rank,
                         num_ranks=channel_ranks, num_banks=rank_banks)
                for bank, bank_payload in enumerate(
                    rank_payload.get("per_bank", [])
                )
            )
        return rows
    if "per_bank" in payload:
        rows = [_csv_row(payload, scope="rank", bank="")]
        rank_ranks = payload.get("num_ranks", 1)
        rank_banks = payload.get("num_banks", len(payload["per_bank"]))
        rows.extend(
            _csv_row(bank_payload, scope="bank", bank=bank,
                     num_ranks=rank_ranks, num_banks=rank_banks)
            for bank, bank_payload in enumerate(payload["per_bank"])
        )
        return rows
    return [_csv_row(payload, scope="bank", bank=0)]


def system_mttf_years(
    per_bank_mttf_years: float, banks: int = CONCURRENT_BANKS
) -> float:
    """System MTTF given independent per-bank failure rates (§VIII-B).

    The paper: 64 banks, of which 22 can be attacked concurrently due
    to tFAW, so the system failure rate is 22x the per-bank rate
    (e.g. 10,000-year banks => 450-year system).
    """
    if per_bank_mttf_years <= 0:
        raise ValueError("per_bank_mttf_years must be positive")
    if banks < 1:
        raise ValueError("banks must be >= 1")
    return per_bank_mttf_years / banks
