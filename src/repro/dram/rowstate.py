"""Per-row disturbance accounting: the Rowhammer failure oracle.

This module models the physical effect the trackers defend against. Every
activation of row ``r`` disturbs its neighbours within the blast radius;
a refresh of a row (auto-refresh or mitigative victim refresh) resets the
disturbance accumulated on that row. A row whose accumulated disturbance
reaches the device's Rowhammer threshold (TRH) is flagged as flipped.

The model is deliberately the same abstraction the paper analyses at:
activation counts versus a scalar threshold. Mitigative refreshes are
*silent activations* of the victim rows — they disturb the victims'
neighbours in turn, which is exactly the mechanism behind transitive
(Half-Double) attacks, so the oracle reproduces them for free.

Two storage backends implement the same contract:

``sparse`` (:class:`RowDisturbanceModel` proper)
    A ``dict`` keyed by row. Attacks touch a handful of rows out of
    128K, so the dict wins for tiny banks and ad-hoc interactive use;
    the reference engine runs on it.
``dense`` (:class:`DenseRowDisturbanceModel`)
    NumPy ``float64`` disturbance/peak vectors plus a flipped bitmap.
    The fused march adopts these vectors as row views of its packed
    ``(unit, row)`` arrays and owns the batched neighbour scatter; the
    model's ``activate_many`` is the activation-exact replay the march
    falls back to for order-sensitive batches, so results are
    numerically identical to the sparse backend — bit for bit,
    including flip-event order.

Backend selection is automatic: constructing :class:`RowDisturbanceModel`
picks the dense backend when the bank has at least
:data:`DENSE_MIN_ROWS` rows, and the sparse dict otherwise. Pass
``backend="sparse"``/``"dense"`` to force one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

#: Banks with at least this many rows get the dense backend when the
#: storage backend is left on ``"auto"``. Below it (unit-test sized
#: models, ad-hoc use) the dict backend's zero allocation cost wins.
DENSE_MIN_ROWS = 1024

#: Accepted row-batch types for ``activate_many``. Arrays are read,
#: never written: the kernel treats caller batches as immutable.
RowBatch = Union[Sequence[int], "np.ndarray"]


def _resolve_backend(backend: str, num_rows: int) -> str:
    if backend == "auto":
        return "dense" if num_rows >= DENSE_MIN_ROWS else "sparse"
    if backend not in ("sparse", "dense"):
        raise ValueError(f"unknown backend {backend!r}; use auto/sparse/dense")
    return backend


@dataclass
class FlipEvent:
    """Record of a row crossing the Rowhammer threshold."""

    row: int
    disturbance: float
    time_ns: float


class RowDisturbanceModel:
    """Tracks disturbance per row and detects threshold crossings.

    Parameters
    ----------
    num_rows:
        Rows in the bank. Row indices outside ``[0, num_rows)`` are
        silently clipped (edge rows simply have fewer neighbours).
    trh:
        Rowhammer threshold: disturbances a row can absorb between
        refreshes before flipping. The paper's per-row double-sided
        threshold (TRH-D) corresponds to each neighbour contributing
        one disturbance per activation.
    blast_radius:
        How many rows on either side of an activated row are disturbed.
        The paper uses 1 for analysis; 2 is modelled for the ablation.
    decay:
        Disturbance contributed to a neighbour at distance ``d`` is
        ``decay ** (d - 1)``. The paper's analysis uses distance-1 only,
        i.e. within the blast radius every neighbour counts fully; keep
        ``decay=1.0`` to reproduce the paper.
    backend:
        ``"auto"`` (default) picks the dense NumPy backend for banks of
        at least :data:`DENSE_MIN_ROWS` rows, the sparse dict otherwise;
        ``"sparse"``/``"dense"`` force one.
    """

    #: Storage backend implemented by this class ("sparse" or "dense").
    backend = "sparse"

    def __new__(
        cls,
        num_rows: int = 0,
        trh: float = 0.0,
        blast_radius: int = 1,
        decay: float = 1.0,
        backend: str = "auto",
    ) -> "RowDisturbanceModel":
        # Dispatch on the resolved backend so plain
        # ``RowDisturbanceModel(...)`` transparently builds the dense
        # variant for production-sized banks.
        if cls is RowDisturbanceModel:
            if _resolve_backend(backend, num_rows) == "dense":
                return super().__new__(DenseRowDisturbanceModel)
        return super().__new__(cls)

    def __init__(
        self,
        num_rows: int,
        trh: float,
        blast_radius: int = 1,
        decay: float = 1.0,
        backend: str = "auto",
    ) -> None:
        if num_rows <= 0:
            raise ValueError("num_rows must be positive")
        if trh <= 0:
            raise ValueError("trh must be positive")
        if blast_radius < 1:
            raise ValueError("blast_radius must be >= 1")
        self.num_rows = num_rows
        self.trh = float(trh)
        self.blast_radius = blast_radius
        self.decay = decay
        self.flips: list[FlipEvent] = []
        self._init_storage()

    def _init_storage(self) -> None:
        # Sparse map row -> accumulated disturbance. Attacks touch a
        # handful of rows out of 128K, so a dict beats a dense array
        # for small/ad-hoc models.
        self._disturbance: dict[int, float] = {}
        # Historical per-row maxima (refreshes reset disturbance but
        # not the peak): the "max unmitigated hammers" metric.
        self._peak: dict[int, float] = {}
        self._flipped: set[int] = set()

    # ------------------------------------------------------------------
    # Disturbance events
    # ------------------------------------------------------------------
    def activate(self, row: int, time_ns: float = 0.0, weight: float = 1.0) -> None:
        """Record one activation of ``row`` and disturb its neighbours.

        An activation is a full row cycle (read + restore), so it also
        refreshes the activated row itself — without this, a hammered
        aggressor would spuriously accumulate disturbance from its own
        victims' mitigative refreshes.
        """
        self._disturbance.pop(row, None)
        for distance in range(1, self.blast_radius + 1):
            contribution = weight * self.decay ** (distance - 1)
            for victim in (row - distance, row + distance):
                if 0 <= victim < self.num_rows:
                    self._bump(victim, contribution, time_ns)

    def activate_many(self, rows: RowBatch, time_ns: float = 0.0) -> None:
        """Record a batch of activations in order (hot-loop entry point).

        Semantically identical to calling :meth:`activate` once per row.
        ``rows`` may be any integer sequence or a NumPy array; it is
        never mutated.
        """
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()
        if self.blast_radius != 1 or self.decay != 1.0:
            for row in rows:
                self.activate(row, time_ns)
            return
        # Common case (blast radius 1, no decay) inlined so the
        # per-activation cost is a few dict operations and no Python
        # allocation.
        disturbance = self._disturbance
        peak = self._peak
        flipped = self._flipped
        flips = self.flips
        pop = disturbance.pop
        get = disturbance.get
        peak_get = peak.get
        num_rows = self.num_rows
        trh = self.trh
        for row in rows:
            pop(row, None)
            # Full bounds checks on both victims: out-of-range
            # *aggressors* are legal (clipped) inputs, so row±1 can
            # fall outside the bank on either side.
            victim = row - 1
            if 0 <= victim < num_rows:
                total = get(victim, 0.0) + 1.0
                disturbance[victim] = total
                if total > peak_get(victim, 0.0):
                    peak[victim] = total
                if total >= trh and victim not in flipped:
                    flipped.add(victim)
                    flips.append(FlipEvent(victim, total, time_ns))
            victim = row + 1
            if 0 <= victim < num_rows:
                total = get(victim, 0.0) + 1.0
                disturbance[victim] = total
                if total > peak_get(victim, 0.0):
                    peak[victim] = total
                if total >= trh and victim not in flipped:
                    flipped.add(victim)
                    flips.append(FlipEvent(victim, total, time_ns))

    def refresh_row(self, row: int, time_ns: float = 0.0) -> None:
        """Refresh ``row``: resets its disturbance (charge restored).

        Note this does *not* disturb the refreshed row's neighbours; use
        :meth:`mitigate` for a victim refresh performed as a mitigative
        activation, which does disturb (the transitive-attack channel).
        """
        self._disturbance.pop(row, None)

    def clear_row(self, row: int) -> None:
        """Forget ``row``'s accumulated disturbance without charge-restore
        semantics.

        The mitigation paths use this to make a victim refresh
        self-consistent: the refresh restores the row, the refresh's own
        activation then deposits disturbance on its neighbours, and any
        disturbance a *sibling* victim's activation deposited back on
        the refreshed row within the same mitigation must be dropped.
        Unlike :meth:`refresh_row` it carries no timestamp because it is
        bookkeeping, not a DRAM command.
        """
        self._disturbance.pop(row, None)

    def refresh_range(self, lo: int, hi: int, time_ns: float = 0.0) -> None:
        """Refresh every row in ``[lo, hi)`` — the rolling auto-refresh
        slice. One vector store on the dense backend."""
        for row in [r for r in self._disturbance if lo <= r < hi]:
            self._disturbance.pop(row, None)

    def disturbed_rows(self) -> list[int]:
        """Rows currently carrying non-zero disturbance.

        Sparse backend: first-disturbance order; dense: ascending. Use
        ``sorted()`` when the order matters across backends.
        """
        return list(self._disturbance)

    def mitigate(self, aggressor: int, time_ns: float = 0.0) -> list[int]:
        """Mitigative refresh of the victims of ``aggressor``.

        Every row within the blast radius of the aggressor is refreshed.
        Each such refresh is itself an activation of the victim row and
        disturbs *its* neighbours — the transitive channel exploited by
        Half-Double. Returns the list of refreshed rows.
        """
        refreshed = []
        for distance in range(1, self.blast_radius + 1):
            for victim in (aggressor - distance, aggressor + distance):
                if 0 <= victim < self.num_rows:
                    refreshed.append(victim)
        # Refresh first (restore charge), then account the disturbance
        # the refresh activations cause to rows beyond the refreshed set.
        for victim in refreshed:
            self.refresh_row(victim, time_ns)
        for victim in refreshed:
            self.activate(victim, time_ns)
        # Refreshing restores the refreshed rows regardless of what the
        # sibling victim's activation deposited on them during this same
        # mitigation; clear again so a single mitigation is self-consistent.
        for victim in refreshed:
            self.clear_row(victim)
        return refreshed

    def auto_refresh_all(self, time_ns: float = 0.0) -> None:
        """tREFW rollover: every row has been refreshed once."""
        self._disturbance.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def disturbance(self, row: int) -> float:
        """Accumulated disturbance on ``row`` since its last refresh."""
        return self._disturbance.get(row, 0.0)

    def max_disturbance(self) -> float:
        """Largest disturbance currently accumulated on any row."""
        return max(self._disturbance.values(), default=0.0)

    def most_disturbed_row(self) -> int | None:
        """Lowest-indexed row with the highest accumulated disturbance.

        The lowest-index tie-break is part of the contract: it makes the
        answer identical across the sparse and dense backends (a dict's
        insertion order would not be).
        """
        if not self._disturbance:
            return None
        best = max(self._disturbance.values())
        return min(r for r, v in self._disturbance.items() if v == best)

    def disturbance_summary(self) -> tuple[float, int | None]:
        """``(max_disturbance(), most_disturbed_row())`` in one call.

        Exists so result collection pays one storage scan instead of
        two on the dense backend; the sparse form just composes the two
        queries, so the pair is identical to calling them separately.
        """
        if not self._disturbance:
            return 0.0, None
        best = max(self._disturbance.values())
        return best, min(
            r for r, v in self._disturbance.items() if v == best
        )

    @property
    def any_flip(self) -> bool:
        return bool(self.flips)

    def peak_disturbance(self, row: int) -> float:
        """Highest disturbance ``row`` ever reached between refreshes."""
        return self._peak.get(row, 0.0)

    def _bump(self, row: int, amount: float, time_ns: float) -> None:
        total = self._disturbance.get(row, 0.0) + amount
        self._disturbance[row] = total
        if total > self._peak.get(row, 0.0):
            self._peak[row] = total
        if total >= self.trh and row not in self._flipped:
            self._flipped.add(row)
            self.flips.append(FlipEvent(row=row, disturbance=total, time_ns=time_ns))


class DenseRowDisturbanceModel(RowDisturbanceModel):
    """NumPy-backed oracle: dense disturbance/peak vectors.

    State is three vectors over the bank's rows — ``float64``
    disturbance and peak, plus a flipped bitmap — which the fused march
    adopts as row views of its packed ``(unit, row)`` arrays
    (:meth:`adopt_storage`). The batched neighbour scatter lives in the
    march, not here: :meth:`activate_many` is the activation-exact
    replay (the sparse loop on arrays) the march hands the batches it
    cannot scatter bit-identically — aggressor/victim interleavings,
    where the in-batch order of an ACT's self-refresh is observable,
    and steps that flip rows, whose events must carry the crossing-time
    disturbance in act order.
    """

    backend = "dense"

    def _init_storage(self) -> None:
        self._dist = np.zeros(self.num_rows, dtype=np.float64)
        self._peak_arr = np.zeros(self.num_rows, dtype=np.float64)
        self._flipped_mask = np.zeros(self.num_rows, dtype=bool)

    def adopt_storage(
        self,
        dist: "np.ndarray",
        peak: "np.ndarray",
        flipped: "np.ndarray",
    ) -> None:
        """Re-point the model's state at caller-owned array views.

        The fused channel kernel owns one packed ``(rank·bank, row)``
        array family and hands each bank's model a row view into it, so
        packed whole-channel scatters and the per-bank operations
        (mitigate, refresh_range, queries, the exact replay fallback)
        read and write the *same* memory — bit-identity between the
        fused and per-bank paths holds by construction rather than by
        mirroring state.

        The views must be float64/float64/bool 1-D arrays of
        ``num_rows`` entries. Existing state is copied into the views,
        so adoption is legal at any point, not just on a fresh model.
        """
        for view, current in (
            (dist, self._dist),
            (peak, self._peak_arr),
            (flipped, self._flipped_mask),
        ):
            if view.shape != (self.num_rows,):
                raise ValueError(
                    f"adopted view has shape {view.shape}; "
                    f"expected ({self.num_rows},)"
                )
            view[:] = current
        self._dist = dist
        self._peak_arr = peak
        self._flipped_mask = flipped

    # ------------------------------------------------------------------
    # Disturbance events
    # ------------------------------------------------------------------
    def activate(self, row: int, time_ns: float = 0.0, weight: float = 1.0) -> None:
        # Out-of-range rows are legal no-op targets in the sparse
        # backend (dict pop); clip them here too — and never let a
        # negative index wrap around the arrays.
        if 0 <= row < self.num_rows:
            self._dist[row] = 0.0
        for distance in range(1, self.blast_radius + 1):
            contribution = weight * self.decay ** (distance - 1)
            for victim in (row - distance, row + distance):
                if 0 <= victim < self.num_rows:
                    self._bump(victim, contribution, time_ns)

    def _bump(self, row: int, amount: float, time_ns: float) -> None:
        dist = self._dist
        total = dist[row] + amount
        dist[row] = total
        if total > self._peak_arr[row]:
            self._peak_arr[row] = total
        if total >= self.trh and not self._flipped_mask[row]:
            self._flipped_mask[row] = True
            self.flips.append(
                FlipEvent(row=int(row), disturbance=float(total), time_ns=time_ns)
            )

    def activate_many(self, rows: RowBatch, time_ns: float = 0.0) -> None:
        seq = rows.tolist() if isinstance(rows, np.ndarray) else rows
        if self.blast_radius != 1 or self.decay != 1.0:
            for row in seq:
                self.activate(row, time_ns)
            return
        dist = self._dist
        peak = self._peak_arr
        flipped = self._flipped_mask
        flips = self.flips
        num_rows = self.num_rows
        trh = self.trh
        for row in seq:
            if 0 <= row < num_rows:
                dist[row] = 0.0
            victim = row - 1
            if 0 <= victim < num_rows:
                total = dist[victim] + 1.0
                dist[victim] = total
                if total > peak[victim]:
                    peak[victim] = total
                if total >= trh and not flipped[victim]:
                    flipped[victim] = True
                    flips.append(FlipEvent(victim, float(total), time_ns))
            victim = row + 1
            if 0 <= victim < num_rows:
                total = dist[victim] + 1.0
                dist[victim] = total
                if total > peak[victim]:
                    peak[victim] = total
                if total >= trh and not flipped[victim]:
                    flipped[victim] = True
                    flips.append(FlipEvent(victim, float(total), time_ns))

    def mitigate(self, aggressor: int, time_ns: float = 0.0) -> list[int]:
        if self.blast_radius != 1 or self.decay != 1.0:
            return super().mitigate(aggressor, time_ns)
        # Radius-1 victim refresh, inlined: refresh aggressor±1, let each
        # refresh's activation disturb *its* neighbours (the transitive
        # channel), then restore the refreshed pair. Same op order as the
        # generic path, minus the per-victim method dispatch — this runs
        # once per REF per bank, right behind the hot loop.
        num_rows = self.num_rows
        refreshed = [
            victim
            for victim in (aggressor - 1, aggressor + 1)
            if 0 <= victim < num_rows
        ]
        dist = self._dist
        for victim in refreshed:
            dist[victim] = 0.0
        for victim in refreshed:
            dist[victim] = 0.0
            for neighbour in (victim - 1, victim + 1):
                if 0 <= neighbour < num_rows:
                    self._bump(neighbour, 1.0, time_ns)
        for victim in refreshed:
            dist[victim] = 0.0
        return refreshed

    def refresh_row(self, row: int, time_ns: float = 0.0) -> None:
        if 0 <= row < self.num_rows:
            self._dist[row] = 0.0

    def clear_row(self, row: int) -> None:
        if 0 <= row < self.num_rows:
            self._dist[row] = 0.0

    def refresh_range(self, lo: int, hi: int, time_ns: float = 0.0) -> None:
        self._dist[max(0, lo) : hi] = 0.0

    def disturbed_rows(self) -> list[int]:
        return np.nonzero(self._dist)[0].tolist()

    def auto_refresh_all(self, time_ns: float = 0.0) -> None:
        self._dist.fill(0.0)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def disturbance(self, row: int) -> float:
        if not 0 <= row < self.num_rows:
            return 0.0
        return float(self._dist[row])

    def max_disturbance(self) -> float:
        return float(self._dist.max())

    def most_disturbed_row(self) -> int | None:
        row = int(self._dist.argmax())  # argmax: lowest index among ties
        if self._dist[row] <= 0.0:
            return None
        return row

    def disturbance_summary(self) -> tuple[float, int | None]:
        # One argmax scan serves both queries: dist[argmax] IS the max,
        # and argmax already takes the lowest index among ties. (No
        # touched-row windowing here: victim-refresh bumps chain — a
        # refreshed victim's neighbour can itself be mitigated later —
        # so disturbance travels arbitrarily far from activated rows.)
        row = int(self._dist.argmax())
        best = float(self._dist[row])
        return best, (row if best > 0.0 else None)

    def peak_disturbance(self, row: int) -> float:
        if not 0 <= row < self.num_rows:
            return 0.0
        return float(self._peak_arr[row])
