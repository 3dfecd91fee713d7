"""MVCC key-value store with monotonic transaction versions.

This is the producer store of the paper's model (§4): the system of
record that the watch layer exposes changes from, and that lagging
consumers snapshot from when they resync.  It is deliberately modeled
on the stores the paper cites (Spanner/TiDB treated as key-value):

- multi-version storage: every committed value is kept with its version
  (optionally garbage-collected below a watermark);
- atomic multi-key commits stamped by a shared timestamp oracle;
- snapshot reads and range scans at any retained version;
- an internal :class:`~repro.storage.history.ChangeHistory` that CDC
  and watch layers tail;
- optimistic transactions with first-committer-wins conflict detection
  (enough to express the §3.2.1 "remove member, then grant access"
  anomaly workload as two real transactions).

The store is synchronous and in-process; durability is out of scope
(see DESIGN.md §7) because none of the paper's arguments depend on it.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro._types import (
    Key,
    KeyRange,
    Mutation,
    Version,
    VERSION_ZERO,
)
from repro.storage.errors import ConflictError, SnapshotUnavailableError, StorageError
from repro.storage.history import ChangeHistory, CommittedTransaction
from repro.storage.keyindex import SortedKeyIndex
from repro.storage.snapshot import SnapshotView
from repro.storage.tso import TimestampOracle


class _VersionChain:
    """Version history for one key: parallel sorted arrays."""

    __slots__ = ("versions", "mutations")

    def __init__(self) -> None:
        self.versions: List[Version] = []
        self.mutations: List[Mutation] = []

    def append(self, version: Version, mutation: Mutation) -> None:
        # kv.py guarantees versions arrive in increasing order per key
        self.versions.append(version)
        self.mutations.append(mutation)

    def at(self, version: Version) -> Optional[Mutation]:
        """Latest mutation with version <= ``version`` (None if none)."""
        idx = bisect.bisect_right(self.versions, version) - 1
        if idx < 0:
            return None
        return self.mutations[idx]

    def gc_below(self, watermark: Version) -> int:
        """Drop versions strictly below ``watermark``, keeping at least
        the latest one at-or-below it (so reads at the watermark work).
        Returns number of versions dropped."""
        idx = bisect.bisect_right(self.versions, watermark) - 1
        if idx <= 0:
            return 0
        del self.versions[:idx]
        del self.mutations[:idx]
        return idx


class MVCCStore:
    """The multi-version store. See module docstring."""

    def __init__(
        self,
        tso: Optional[TimestampOracle] = None,
        name: str = "store",
        history_retention_commits: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.tso = tso or TimestampOracle()
        self.history = ChangeHistory(retention_commits=history_retention_commits)
        self._chains: Dict[Key, _VersionChain] = {}
        self._key_index = SortedKeyIndex()  # all keys ever written
        self._gc_watermark: Version = VERSION_ZERO
        self._clock = clock or (lambda: 0.0)
        self.bytes_written = 0  # hard-state accounting for experiment E8
        self.commit_count = 0

    # ------------------------------------------------------------------
    # writing

    def commit(self, writes: Dict[Key, Mutation]) -> Version:
        """Atomically apply ``writes`` at a fresh version; return it."""
        if not writes:
            raise StorageError("empty transaction")
        version = self.tso.next()
        self._apply(version, writes)
        return version

    def put(self, key: Key, value: Any) -> Version:
        """Convenience single-key put."""
        return self.commit({key: Mutation.put(value)})

    def delete(self, key: Key) -> Version:
        """Convenience single-key delete."""
        return self.commit({key: Mutation.delete()})

    def apply_at(self, version: Version, writes: Dict[Key, Mutation]) -> None:
        """Apply writes at an externally assigned version (replication
        targets use this to mirror source versions).  The version must
        exceed every version already in the store."""
        if version <= self.last_version:
            raise StorageError(
                f"apply_at v{version} not above store version v{self.last_version}"
            )
        self.tso.observe(version)
        self._apply(version, writes)

    def _apply(self, version: Version, writes: Dict[Key, Mutation]) -> None:
        for key, mutation in writes.items():
            chain = self._chains.get(key)
            if chain is None:
                chain = _VersionChain()
                self._chains[key] = chain
                self._key_index.add(key)  # amortized O(1), merged on read
            chain.append(version, mutation)
            self.bytes_written += len(key) + mutation.size()
        self.commit_count += 1
        self.history.append(
            CommittedTransaction(
                version=version,
                writes=tuple(writes.items()),
                commit_time=self._clock(),
            )
        )

    # ------------------------------------------------------------------
    # reading

    @property
    def last_version(self) -> Version:
        """The newest committed version (VERSION_ZERO if empty)."""
        return self.tso.last

    def get(self, key: Key, version: Optional[Version] = None) -> Optional[Any]:
        """Value of ``key`` at ``version`` (default: latest); None if
        absent or deleted as of that version."""
        version = self._check_version(version)
        chain = self._chains.get(key)
        if chain is None:
            return None
        mutation = chain.at(version)
        if mutation is None or mutation.is_delete:
            return None
        return mutation.value

    def get_versioned(
        self, key: Key, version: Optional[Version] = None
    ) -> Optional[Tuple[Version, Any]]:
        """(version, value) of the visible write, or None."""
        version = self._check_version(version)
        chain = self._chains.get(key)
        if chain is None:
            return None
        idx = bisect.bisect_right(chain.versions, version) - 1
        if idx < 0:
            return None
        mutation = chain.mutations[idx]
        if mutation.is_delete:
            return None
        return (chain.versions[idx], mutation.value)

    def exists(self, key: Key, version: Optional[Version] = None) -> bool:
        return self.get(key, version) is not None

    def scan(
        self, key_range: KeyRange = KeyRange.all(), version: Optional[Version] = None
    ) -> Iterator[Tuple[Key, Any]]:
        """Yield (key, value) pairs in ``key_range`` at ``version``,
        in key order, skipping deleted/absent keys."""
        version = self._check_version(version)
        chains = self._chains
        for key in self._key_index.irange(key_range.low, key_range.high):
            mutation = chains[key].at(version)
            if mutation is not None and not mutation.is_delete:
                yield (key, mutation.value)

    def count(
        self, key_range: KeyRange = KeyRange.all(), version: Optional[Version] = None
    ) -> int:
        """Number of live keys in ``key_range`` at ``version``."""
        # direct walk: no (key, value) tuple per live key as scan pays
        version = self._check_version(version)
        chains = self._chains
        n = 0
        for key in self._key_index.irange(key_range.low, key_range.high):
            mutation = chains[key].at(version)
            if mutation is not None and not mutation.is_delete:
                n += 1
        return n

    def snapshot(self, version: Optional[Version] = None) -> SnapshotView:
        """An immutable read view at ``version`` (default: latest)."""
        version = self._check_version(version)
        return SnapshotView(self, version)

    def _check_version(self, version: Optional[Version]) -> Version:
        if version is None:
            return self.last_version
        if version < self._gc_watermark:
            raise SnapshotUnavailableError(version, self._gc_watermark)
        return version

    @property
    def oldest_readable_version(self) -> Version:
        """Oldest version snapshot reads are guaranteed to work at."""
        return self._gc_watermark

    # ------------------------------------------------------------------
    # maintenance

    def gc_versions_below(self, watermark: Version) -> int:
        """Garbage-collect value versions strictly below ``watermark``.

        Snapshot reads below the watermark then raise
        :class:`SnapshotUnavailableError`.  Returns versions dropped.
        """
        if watermark <= self._gc_watermark:
            return 0
        dropped = 0
        for chain in self._chains.values():
            dropped += chain.gc_below(watermark)
        self._gc_watermark = watermark
        return dropped

    def keys(self, key_range: KeyRange = KeyRange.all()) -> List[Key]:
        """All keys ever written in range (live or deleted)."""
        return self._key_index.slice(key_range.low, key_range.high)

    # ------------------------------------------------------------------
    # transactions

    def transaction(self) -> "Transaction":
        """Begin an optimistic transaction snapshotted at the current
        version."""
        return Transaction(self)


class Transaction:
    """Optimistic transaction with first-committer-wins semantics.

    Reads see the snapshot at begin time plus the transaction's own
    buffered writes.  At commit, if any key in the read/write footprint
    was committed by another transaction after our snapshot, the commit
    raises :class:`ConflictError` and applies nothing.
    """

    def __init__(self, store: MVCCStore) -> None:
        self._store = store
        self._read_version = store.last_version
        self._writes: Dict[Key, Mutation] = {}
        self._reads: set[Key] = set()
        self._done = False

    @property
    def read_version(self) -> Version:
        return self._read_version

    def get(self, key: Key) -> Optional[Any]:
        self._check_open()
        if key in self._writes:
            mutation = self._writes[key]
            return None if mutation.is_delete else mutation.value
        self._reads.add(key)
        return self._store.get(key, self._read_version)

    def put(self, key: Key, value: Any) -> None:
        self._check_open()
        self._writes[key] = Mutation.put(value)

    def delete(self, key: Key) -> None:
        self._check_open()
        self._writes[key] = Mutation.delete()

    def commit(self) -> Version:
        """Validate the footprint and atomically apply buffered writes."""
        self._check_open()
        self._done = True
        if not self._writes:
            return self._read_version
        footprint = self._reads | set(self._writes)
        for key in footprint:
            chain = self._store._chains.get(key)
            if chain is None or not chain.versions:
                continue
            latest = chain.versions[-1]
            if latest > self._read_version:
                raise ConflictError(key, self._read_version, latest)
        return self._store.commit(dict(self._writes))

    def abort(self) -> None:
        self._done = True
        self._writes.clear()

    def _check_open(self) -> None:
        if self._done:
            raise StorageError("transaction already finished")
