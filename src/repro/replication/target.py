"""The replication target store.

A flat key-value state with three apply disciplines, matching §3.2.1:

- :meth:`apply_naive` — last-arrival-wins (what a consumer that just
  applies events in delivery order does);
- :meth:`apply_versioned` — version checks and tombstones: an apply is
  dropped unless its version exceeds the key's current version, and
  deletes leave a versioned tombstone so a reordered earlier insert
  cannot resurrect the row;
- :meth:`apply_txn` — atomic multi-key apply (used by the serial and
  watch appliers, which reconstruct transaction boundaries).

Every state transition notifies observers.  The store's XOR
fingerprint is lazy: a store nobody asks hashes nothing, and the first
:attr:`ReplicaStore.fingerprint` read folds the live state once, after
which every write keeps it incrementally — so a snapshot checker that
reads it after every transition pays O(1) per write.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro._types import Key, Mutation, Version


def _item_hash(key: Key, value: Any) -> int:
    digest = hashlib.md5(f"{key!r}={value!r}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def state_fingerprint(items: Dict[Key, Any]) -> int:
    """XOR fingerprint of a full state: what a store's tracked
    fingerprint equals, and what its first read computes."""
    fp = 0
    for key, value in items.items():
        fp ^= _item_hash(key, value)
    return fp


class _Absent:
    __slots__ = ()


_ABSENT = _Absent()


class CursorCorruption(RuntimeError):
    """A replica cursor is provably out of range.

    Raised instead of silently re-applying or skipping when a per-key
    version sits *ahead* of the store's apply watermark (nothing the
    pipeline delivered can have put it there), or when
    :meth:`ReplicaStore.verify_cursor` finds a cursor beyond the source
    head.  The typed error is the detectable signal the reconciliation
    plane plans repairs from.
    """

    def __init__(self, kind: str, key: Optional[Key] = None, detail: str = "") -> None:
        self.kind = kind
        self.key = key
        self.detail = detail
        message = f"cursor corruption [{kind}]"
        if key is not None:
            message += f" key={key!r}"
        if detail:
            message += f": {detail}"
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.kind, self.key, self.detail), self.__dict__


StateObserver = Callable[["ReplicaStore"], None]


class ReplicaStore:
    """Target store with versioned apply and state fingerprinting.

    The fingerprint is untracked (``_fingerprint is None``) until its
    first read, so writes to a store nobody fingerprints hash nothing;
    from then on each write updates it with one or two item hashes.
    """

    def __init__(self, name: str = "replica") -> None:
        self.name = name
        self._state: Dict[Key, Any] = {}
        #: version of the last applied write per key, tombstones included
        self._versions: Dict[Key, Version] = {}
        #: apply watermark: the highest version any apply ever carried.
        #: A per-key version above it is unreachable through the apply
        #: path — the signature of a forged/advanced cursor.
        self._cursor: Version = 0
        #: XOR of _item_hash over the live state; None until first read
        self._fingerprint: Optional[int] = None
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
        state = self._state
        is_delete = mutation.is_delete
        fp = self._fingerprint
        if fp is not None:
            old = state.get(key, _ABSENT)
            if old is not _ABSENT:
                fp ^= _item_hash(key, old)
            if not is_delete:
                fp ^= _item_hash(key, mutation.value)
            self._fingerprint = fp
        if is_delete:
            state.pop(key, None)
        else:
            state[key] = mutation.value
        self.applies += 1

    def fold_edit(self, key: Key, old: Any, new: Any = _ABSENT) -> None:
        """Keep a tracked fingerprint true across a direct ``_state``
        edit that bypassed the apply path (the corruptor's): ``old``
        leaves the state and ``new``, if given, enters it.  Does nothing
        while untracked: the first read folds whatever the state holds.
        """
        fp = self._fingerprint
        if fp is None:
            return
        fp ^= _item_hash(key, old)
        if new is not _ABSENT:
            fp ^= _item_hash(key, new)
        self._fingerprint = fp

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
        """XOR fingerprint of the current visible state.

        The first read folds the live state once; tracking is
        incremental from then on."""
        fp = self._fingerprint
        if fp is None:
            fp = self._fingerprint = state_fingerprint(self._state)
        return fp

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
        keeping a tracked fingerprint incremental and notifying observers
        like any other externalized transition."""
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
