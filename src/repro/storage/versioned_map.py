"""Per-key version chains: the one MVCC structure in the repo.

The producer store (:class:`~repro.storage.kv.MVCCStore`) keeps its
committed versions here, and watch clients (linked caches, relays,
read replicas) materialize the stream they receive into one so they can
serve reads *at a version* — the capability knowledge regions promise.

Versions for a key usually arrive in increasing order (every store
commit, most deliveries), which :meth:`VersionedMap.apply` appends at
the tail.  A client may also re-apply a duplicate after redelivery or
receive a key's versions out of order from concurrent appliers, so an
apply at or below a key's newest version is an idempotent in-place
insert.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro._types import Key, KeyRange, Mutation, Version
from repro.storage.keyindex import SortedKeyIndex


class VersionedMap:
    """Per-key version chains with reads at any version."""

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

        A version above the key's newest is appended.  Otherwise the
        apply is idempotent: re-applying the same (key, version)
        replaces rather than duplicates, and an older version is
        inserted in place (needed by concurrent replication appliers).
        """
        versions = self._versions.get(key)
        if versions is None:
            self._versions[key] = [version]
            self._mutations[key] = [mutation]
            self._key_index.add(key)  # amortized O(1), merged on read
        elif version > versions[-1]:
            versions.append(version)
            self._mutations[key].append(mutation)
        else:
            idx = bisect.bisect_left(versions, version)
            if versions[idx] == version:
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
        visible = self.get_versioned_at(key, version)
        return None if visible is None else visible[1]

    def get_latest(self, key: Key) -> Optional[Any]:
        """Newest value (None if absent or last write was a delete)."""
        mutations = self._mutations.get(key)
        if not mutations:
            return None
        mutation = mutations[-1]
        return None if mutation.is_delete else mutation.value

    def get_versioned_at(
        self, key: Key, version: Version
    ) -> Optional[Tuple[Version, Any]]:
        """(version, value) of the write visible at ``version``, or None
        if absent or deleted."""
        versions = self._versions.get(key)
        if not versions:
            return None
        idx = bisect.bisect_right(versions, version) - 1
        if idx < 0:
            return None
        mutation = self._mutations[key][idx]
        return None if mutation.is_delete else (versions[idx], mutation.value)

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
