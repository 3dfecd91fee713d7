"""Immutable snapshot views of an MVCC store.

A snapshot is just (store, version): MVCC makes reads at a fixed version
immutable under later writes.  Snapshots are the recovery vehicle of the
paper's model — on resync, a watcher reads a snapshot and resumes
watching from the snapshot's version (§4.2.1).  The paper notes a stale
snapshot is acceptable and can come from a replica
(:class:`~repro.storage.replica.ReadReplica`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Tuple

from repro._types import Key, KeyRange, Version

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.kv import MVCCStore


class SnapshotView:
    """Read-only view of a store at a fixed version."""

    __slots__ = ("_store", "version")

    def __init__(self, store: "MVCCStore", version: Version) -> None:
        self._store = store
        self.version = version

    def scan(self, key_range: KeyRange = KeyRange.all()) -> Iterator[Tuple[Key, Any]]:
        """(key, value) pairs in range as of the snapshot version."""
        return self._store.scan(key_range, self.version)

    def items(self, key_range: KeyRange = KeyRange.all()) -> dict[Key, Any]:
        """Materialize the snapshot contents of ``key_range`` as a dict."""
        return dict(self.scan(key_range))

    def __repr__(self) -> str:  # pragma: no cover
        return f"SnapshotView({self._store.name}@v{self.version})"
