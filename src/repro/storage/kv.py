"""MVCC key-value store with monotonic transaction versions.

This is the producer store of the paper's model (§4): the system of
record that the watch layer exposes changes from, and that lagging
consumers snapshot from when they resync.  It is deliberately modeled
on the stores the paper cites (Spanner/TiDB treated as key-value):

- multi-version storage: every committed value is kept with its version
  in one :class:`~repro.storage.versioned_map.VersionedMap`;
- atomic multi-key commits stamped by a shared timestamp oracle;
- snapshot reads and range scans at any version;
- an internal :class:`~repro.storage.history.ChangeHistory` that CDC
  and watch layers tail;
- optimistic transactions with first-committer-wins conflict detection
  (enough to express the §3.2.1 "remove member, then grant access"
  anomaly workload as two real transactions).

The store is synchronous and in-process; durability is out of scope
(see DESIGN.md §7) because none of the paper's arguments depend on it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro._types import Key, KeyRange, Mutation, Version
from repro.storage.errors import ConflictError, StorageError
from repro.storage.history import ChangeHistory, CommittedTransaction
from repro.storage.snapshot import SnapshotView
from repro.storage.tso import TimestampOracle
from repro.storage.versioned_map import VersionedMap


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
        self._data = VersionedMap()
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
        data = self._data
        for key, mutation in writes.items():
            data.apply(key, mutation, version)
            self.bytes_written += len(key) + mutation.size()
        self.commit_count += 1
        self.history.append(
            CommittedTransaction(
                version=version,
                writes=tuple(writes.items()),
                commit_time=self._clock(),
            )
        )
        return version

    def put(self, key: Key, value: Any) -> Version:
        """Convenience single-key put."""
        return self.commit({key: Mutation.put(value)})

    def delete(self, key: Key) -> Version:
        """Convenience single-key delete."""
        return self.commit({key: Mutation.delete()})

    # ------------------------------------------------------------------
    # reading

    @property
    def last_version(self) -> Version:
        """The newest committed version (VERSION_ZERO if empty)."""
        return self.tso.last

    def get(self, key: Key, version: Optional[Version] = None) -> Optional[Any]:
        """Value of ``key`` at ``version`` (default: latest); None if
        absent or deleted as of that version."""
        return self._data.get_at(key, self.tso.last if version is None else version)

    def get_versioned(
        self, key: Key, version: Optional[Version] = None
    ) -> Optional[Tuple[Version, Any]]:
        """(version, value) of the visible write, or None."""
        return self._data.get_versioned_at(
            key, self.tso.last if version is None else version
        )

    def exists(self, key: Key, version: Optional[Version] = None) -> bool:
        return self.get(key, version) is not None

    def scan(
        self, key_range: KeyRange = KeyRange.all(), version: Optional[Version] = None
    ) -> Iterator[Tuple[Key, Any]]:
        """(key, value) pairs in ``key_range`` at ``version``, in key
        order, skipping deleted/absent keys."""
        items = self._data.items_at(
            key_range, self.tso.last if version is None else version
        )
        return iter(items.items())

    def snapshot(self, version: Optional[Version] = None) -> SnapshotView:
        """An immutable read view at ``version`` (default: latest)."""
        return SnapshotView(self, self.tso.last if version is None else version)

    def keys(self, key_range: KeyRange = KeyRange.all()) -> List[Key]:
        """All keys ever written in range (live or deleted)."""
        return list(self._data._keys_in(key_range))

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

    def get(self, key: Key) -> Optional[Any]:
        self._check_open()
        if key in self._writes:
            return self._writes[key].value
        self._reads.add(key)
        return self._store.get(key, self._read_version)

    def put(self, key: Key, value: Any) -> None:
        self._check_open()
        self._writes[key] = Mutation.put(value)

    def commit(self) -> Version:
        """Validate the footprint and atomically apply buffered writes."""
        self._check_open()
        self._done = True
        if not self._writes:
            return self._read_version
        footprint = self._reads | set(self._writes)
        latest_version = self._store._data.latest_version
        for key in footprint:
            latest = latest_version(key)
            if latest is not None and latest > self._read_version:
                raise ConflictError(key, self._read_version, latest)
        return self._store.commit(dict(self._writes))

    def abort(self) -> None:
        self._done = True
        self._writes.clear()

    def _check_open(self) -> None:
        if self._done:
            raise StorageError("transaction already finished")
