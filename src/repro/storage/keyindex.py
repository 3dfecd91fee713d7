"""Lazily merged sorted key index.

:class:`~repro.storage.versioned_map.VersionedMap` (under the store and
every watch client) and the ingestion store's series keys need their
key set in sorted order for range scans, but keys arrive in commit
order.  ``bisect.insort`` makes every *new* key O(n) — O(n²) across
key-space growth, which dominates ingest-heavy experiments once the
keyspace is large.

:class:`SortedKeyIndex` batches new keys in a pending list (O(1)
amortized per add) and merges on first read.  The merge sorts the
pending batch (O(k log k)) and appends it to the sorted run; when the
batch doesn't extend the run, one ``list.sort`` over the whole array
lets timsort merge the two runs in O(n + k).  Scans therefore stay
O(log n + k) and commits never pay a per-key shift.

Iteration (:meth:`irange`) walks the merged array by index — no slice
copies.  If a reader re-enters the index *during* iteration (a scan
consumer that writes back to the store, forcing a merge), the iterator
detects the generation change and re-bisects past the last yielded key
rather than yielding from stale positions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List


class SortedKeyIndex:
    """Sorted set of keys with amortized-O(1) insertion.

    The caller guarantees added keys are not already present (every
    owner gates :meth:`add` on the first write of a key).
    """

    __slots__ = ("_sorted", "_pending", "_generation")

    def __init__(self) -> None:
        self._sorted: List[str] = []
        self._pending: List[str] = []
        #: bumped on every merge; iterators use it to detect reentrant
        #: mutation and re-bisect instead of reading shifted indices
        self._generation = 0

    def add(self, key: str) -> None:
        """Record a new key (must not already be present)."""
        self._pending.append(key)

    def clear(self) -> None:
        self._sorted.clear()
        self._pending.clear()
        self._generation += 1

    def _merge(self) -> List[str]:
        pending = self._pending
        if pending:
            if len(pending) > 1:
                pending.sort()
            merged = self._sorted
            if merged and pending[0] < merged[-1]:
                merged.extend(pending)
                merged.sort()  # timsort merges the two sorted runs
            else:
                merged.extend(pending)
            pending.clear()
            self._generation += 1
        return self._sorted

    def irange(self, low: str, high: str) -> Iterator[str]:
        """Yield keys in ``[low, high)`` in sorted order, no copies."""
        merged = self._merge()
        generation = self._generation
        i = bisect_left(merged, low)
        while i < len(merged):
            key = merged[i]
            if key >= high:
                return
            yield key
            if self._generation != generation:
                # reentrant add/clear during iteration: re-establish
                # our position after the key just yielded
                merged = self._merge()
                generation = self._generation
                i = bisect_right(merged, key)
            else:
                i += 1
