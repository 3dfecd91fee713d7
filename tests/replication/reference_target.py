"""The eagerly fingerprinted replica store: the spec the lazy one refines.

``ReferenceReplicaStore`` is ``ReplicaStore`` as it was before its
fingerprint became lazy: every write hashes the item it removes and the
item it adds, from construction on, whether or not anything ever reads
the fingerprint.  ``ReferenceCorruptor`` is ``StateCorruptor`` with the
two replica edits that wrote that fingerprint directly.
``test_lazy_fingerprint.py`` demands that no program can tell the lazy
store from this one.  Test-only, never imported from ``src/``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro._types import Key, Mutation, Version
from repro.reconcile.corruptor import StateCorruptor, scope_for_key
from repro.replication.target import _ABSENT, CursorCorruption, _item_hash

StateObserver = Callable[["ReferenceReplicaStore"], None]


class ReferenceReplicaStore:
    """Target store with versioned apply and state fingerprinting."""

    def __init__(self, name: str = "replica") -> None:
        self.name = name
        self._state: Dict[Key, Any] = {}
        #: version of the last applied write per key, tombstones included
        self._versions: Dict[Key, Version] = {}
        #: apply watermark: the highest version any apply ever carried.
        #: A per-key version above it is unreachable through the apply
        #: path — the signature of a forged/advanced cursor.
        self._cursor: Version = 0
        self._fingerprint = 0
        self._observers: List[StateObserver] = []
        self.applies = 0
        self.skipped_stale = 0
        self.repairs = 0

    # ------------------------------------------------------------------
    # apply disciplines

    def apply_naive(self, key: Key, mutation: Mutation, version: Version) -> None:
        """Apply in arrival order, no checks (the reordering hazard)."""
        self._guard_cursor(key)
        self._write(key, mutation)
        self._versions[key] = version
        self._advance_cursor(version)
        self._notify()

    def apply_versioned(self, key: Key, mutation: Mutation, version: Version) -> bool:
        """Apply only if ``version`` is newer than the key's last write;
        deletes leave a tombstone version.  Returns True if applied."""
        self._guard_cursor(key)
        if version <= self._versions.get(key, 0):
            self.skipped_stale += 1
            return False
        self._write(key, mutation)
        self._versions[key] = version
        self._advance_cursor(version)
        self._notify()
        return True

    def apply_txn(self, writes: Sequence[Tuple[Key, Mutation]], version: Version) -> None:
        """Atomically apply a whole transaction: one externalized state."""
        for key, mutation in writes:
            self._guard_cursor(key)
            if version <= self._versions.get(key, 0):
                self.skipped_stale += 1
                continue
            self._write(key, mutation)
            self._versions[key] = version
        self._advance_cursor(version)
        self._notify()

    def _guard_cursor(self, key: Key) -> None:
        recorded = self._versions.get(key, 0)
        if recorded > self._cursor:
            # nothing the apply path delivered can have written a
            # version the watermark never saw: the per-key cursor was
            # forged.  Raising (instead of silently skipping every
            # future apply as "stale") is what makes the corruption
            # visible to appliers and reconcilers.
            raise CursorCorruption(
                "key-ahead", key=key,
                detail=f"version {recorded} > watermark {self._cursor}",
            )

    def _advance_cursor(self, version: Version) -> None:
        if version > self._cursor:
            self._cursor = version

    def _write(self, key: Key, mutation: Mutation) -> None:
        old = self._state.get(key, _ABSENT)
        if old is not _ABSENT:
            self._fingerprint ^= _item_hash(key, old)
        if mutation.is_delete:
            self._state.pop(key, None)
        else:
            self._state[key] = mutation.value
            self._fingerprint ^= _item_hash(key, mutation.value)
        self.applies += 1

    def _notify(self) -> None:
        for observer in self._observers:
            observer(self)

    # ------------------------------------------------------------------
    # observation

    def observe(self, observer: StateObserver) -> None:
        """Called after every externalized state transition."""
        self._observers.append(observer)

    @property
    def fingerprint(self) -> int:
        """XOR fingerprint of the current visible state."""
        return self._fingerprint

    def get(self, key: Key) -> Optional[Any]:
        return self._state.get(key)

    def items(self) -> Dict[Key, Any]:
        return dict(self._state)

    def version_of(self, key: Key) -> Version:
        return self._versions.get(key, 0)

    @property
    def cursor(self) -> Version:
        """The apply watermark (highest version any apply carried)."""
        return self._cursor

    def verify_cursor(self, source_head: Optional[Version] = None) -> None:
        """Raise :class:`CursorCorruption` if any cursor is out of range.

        Checks every per-key version against the apply watermark
        (forged-future detection) and, when ``source_head`` is given,
        both against the source head (no replica cursor can legally sit
        beyond what the source has committed).
        """
        for key, version in self._versions.items():
            if version > self._cursor:
                raise CursorCorruption(
                    "key-ahead", key=key,
                    detail=f"version {version} > watermark {self._cursor}",
                )
            if source_head is not None and version > source_head:
                raise CursorCorruption(
                    "beyond-head", key=key,
                    detail=f"version {version} > source head {source_head}",
                )
        if source_head is not None and self._cursor > source_head:
            raise CursorCorruption(
                "beyond-head",
                detail=f"watermark {self._cursor} > source head {source_head}",
            )

    # ------------------------------------------------------------------
    # repair (the reconciliation plane's write path)

    def repair(self, key: Key, mutation: Mutation, version: Version) -> None:
        """Force-write ``key`` to an authoritative (source-read) value.

        Bypasses the version check — repair is allowed to move a forged
        per-key cursor *backwards* to the true source version — while
        keeping the fingerprint incremental and notifying observers like
        any other externalized transition."""
        self._write(key, mutation)
        self._versions[key] = version
        self._advance_cursor(version)
        self.repairs += 1
        self._notify()

    def reset_cursor(self) -> Version:
        """Recompute the watermark from the per-key versions (used after
        repairs removed forged entries); returns the new watermark."""
        self._cursor = max(self._versions.values(), default=0)
        return self._cursor

    def __len__(self) -> int:
        return len(self._state)


class ReferenceCorruptor(StateCorruptor):
    """The corruptor's replica edits as they were: direct XORs into the
    store's fingerprint."""

    def _tear_map(self, cls: str) -> int:
        """Delete live keys from the replica map, fingerprint-consistent
        with the torn state (the store has no idea anything happened)."""
        keys = self._pick_replica_keys()
        state = self.replica._state
        for key in keys:
            old = state.pop(key)
            self.replica._fingerprint ^= _item_hash(key, old)
            self._record(cls, scope_for_key(self.shards, key), key=key)
        return len(keys)

    def _rewind_cursors(self, cls: str) -> int:
        """Rewind per-key cursors and revert values to stale garbage —
        a partial restore of an old backup over the live map."""
        keys = self._pick_replica_keys()
        state = self.replica._state
        versions = self.replica._versions
        for key in keys:
            old = state[key]
            stale = {"stale": versions.get(key, 0)}
            self.replica._fingerprint ^= _item_hash(key, old)
            self.replica._fingerprint ^= _item_hash(key, stale)
            state[key] = stale
            versions[key] = max(0, versions.get(key, 0) - 7)
            self._record(cls, scope_for_key(self.shards, key), key=key)
        return len(keys)
