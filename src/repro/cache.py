"""Bounded identity-keyed memo used by the hot-loop kernels.

The engine memoizes per-batch work (unique/count aggregations, packed
scatter plans) keyed by object identity, because attack traces reuse
one interval object across thousands of tREFIs. Those memos used to be
plain dicts wholesale-``clear()``-ed at a size ceiling — which meant a
long stream of *distinct* intervals (randomized placements, adaptive
attacks) periodically flushed the hot shared-interval entries along
with the cold ones, and the next tREFI re-paid the aggregation for the
very interval that recurs every cycle.

:class:`BoundedCache` replaces that: entries carry a last-use tick, and
when the cache is full an insert evicts the least-recently-used quarter
in one pass (one O(n log n) sweep per ~n/4 misses, amortized O(log n)
per insert). Hot entries — the shared intervals touched every tREFI —
always carry recent ticks and survive every sweep.

Entries must hold strong references to their key objects (the caller
stores the keyed object inside the value), so an ``id()`` key can never
be recycled while its entry lives — the same contract the plain-dict
memos relied on.
"""

from __future__ import annotations

from typing import Any, Hashable


class BoundedCache:
    """A bounded mapping with LRU-style quarter eviction.

    ``get`` refreshes the entry's recency; ``put`` inserts, evicting the
    least-recently-used ~quarter of the entries when ``capacity`` is
    reached. Not thread-safe: the engine is single-threaded per
    simulator, and the threaded read path serialises under
    :class:`repro.exp.query.QueryAPI`'s lock.
    """

    __slots__ = ("capacity", "_entries", "_tick")

    def __init__(self, capacity: int) -> None:
        if capacity < 4:
            raise ValueError("capacity must be >= 4")
        self.capacity = capacity
        # key -> [value, last_use_tick]
        self._entries: dict[Hashable, list] = {}
        self._tick = 0

    def get(self, key: Hashable, default: Any = None) -> Any | None:
        """The cached value for ``key`` (marked recently used).

        Returns ``default`` on a miss. A legitimately cached ``None``
        is a hit like any other value — callers that need to tell the
        two apart pass a private sentinel as ``default`` instead of
        testing ``is None`` (which would rebuild cached-``None``
        entries on every access).
        """
        entry = self._entries.get(key)
        if entry is None:
            return default
        self._tick += 1
        entry[1] = self._tick
        return entry[0]

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key``, evicting the stalest quarter if at capacity."""
        entries = self._entries
        if key not in entries and len(entries) >= self.capacity:
            ticks = sorted(entry[1] for entry in entries.values())
            cutoff = ticks[len(ticks) // 4]
            for stale in [k for k, e in entries.items() if e[1] <= cutoff]:
                del entries[stale]
        self._tick += 1
        entries[key] = [value, self._tick]

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries
