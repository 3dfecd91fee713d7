"""A small client-side MVCC map.

Watch clients (linked caches, replication appliers) materialize the
stream into versioned state so they can serve reads *at a version* —
the capability knowledge regions promise.  :class:`VersionedMap` is the
storage for that: per-key version chains with range reads at a version
and pruning of old versions.

This mirrors the server-side MVCC in ``repro.storage.kv`` but is kept
separate on purpose: clients apply events they *received* (possibly a
re-applied duplicate after redelivery), so appends are idempotent and
tolerate equal versions, unlike the store's strict commit order.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Optional

from repro._types import Key, KeyRange, Mutation, Version
from repro.storage.keyindex import SortedKeyIndex


class VersionedMap:
    """Per-key version chains with snapshot reads and pruning."""

    def __init__(self) -> None:
        self._versions: Dict[Key, List[Version]] = {}
        self._mutations: Dict[Key, List[Mutation]] = {}
        self._key_index = SortedKeyIndex()

    def clear(self) -> None:
        self._versions.clear()
        self._mutations.clear()
        self._key_index.clear()

    # ------------------------------------------------------------------
    # writes

    def apply(self, key: Key, mutation: Mutation, version: Version) -> None:
        """Record ``key -> mutation`` at ``version``.

        Idempotent: re-applying the same (key, version) replaces rather
        than duplicates.  Out-of-order versions for a key are inserted
        in place (needed by concurrent replication appliers).
        """
        versions = self._versions.get(key)
        if versions is None:
            self._versions[key] = [version]
            self._mutations[key] = [mutation]
            self._key_index.add(key)  # amortized O(1), merged on read
            return
        idx = bisect.bisect_left(versions, version)
        if idx < len(versions) and versions[idx] == version:
            self._mutations[key][idx] = mutation
        else:
            versions.insert(idx, version)
            self._mutations[key].insert(idx, mutation)

    def load_snapshot(self, items: Dict[Key, Any], version: Version) -> None:
        """Replace all state with a snapshot's items at ``version``."""
        self.clear()
        for key, value in items.items():
            self.apply(key, Mutation.put(value), version)

    # ------------------------------------------------------------------
    # reads

    def get_at(self, key: Key, version: Version) -> Optional[Any]:
        """Value visible at ``version`` (None if absent or deleted)."""
        versions = self._versions.get(key)
        if not versions:
            return None
        idx = bisect.bisect_right(versions, version) - 1
        if idx < 0:
            return None
        mutation = self._mutations[key][idx]
        return None if mutation.is_delete else mutation.value

    def get_latest(self, key: Key) -> Optional[Any]:
        """Newest value (None if absent or last write was a delete)."""
        mutations = self._mutations.get(key)
        if not mutations:
            return None
        mutation = mutations[-1]
        return None if mutation.is_delete else mutation.value

    def latest_version(self, key: Key) -> Optional[Version]:
        """Version of the newest write to ``key`` (None if never written)."""
        versions = self._versions.get(key)
        return versions[-1] if versions else None

    def items_at(self, key_range: KeyRange, version: Version) -> Dict[Key, Any]:
        """All live (key, value) in range at ``version``.

        Single-pass batch assembly over the key index: the chain lookup
        and the version probe are inlined with pre-bound locals instead
        of a ``get_at`` call per key.  Version chains are almost always
        read at-or-past their newest entry (snapshots are served at the
        relay's current knowledge version), so the common case is one
        tail compare per key and the bisect runs only for genuinely
        historical reads.  A mass-snapshot reconnect storm pays this
        scan once per (range, version) — see ``WatchEdgeFrontend``.
        """
        out: Dict[Key, Any] = {}
        versions_by_key = self._versions
        mutations_by_key = self._mutations
        bisect_right = bisect.bisect_right
        for key in self._key_index.irange(key_range.low, key_range.high):
            versions = versions_by_key[key]
            if versions[-1] <= version:
                idx = len(versions) - 1
            else:
                idx = bisect_right(versions, version) - 1
                if idx < 0:
                    continue
            mutation = mutations_by_key[key][idx]
            if not mutation.is_delete:
                out[key] = mutation.value
        return out

    def items_latest(self, key_range: KeyRange = KeyRange.all()) -> Dict[Key, Any]:
        """All live (key, value) in range at the newest versions."""
        out: Dict[Key, Any] = {}
        for key in self._keys_in(key_range):
            value = self.get_latest(key)
            if value is not None:
                out[key] = value
        return out

    def _keys_in(self, key_range: KeyRange) -> Iterator[Key]:
        return self._key_index.irange(key_range.low, key_range.high)
