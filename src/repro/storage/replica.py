"""Read replicas: offloading resync snapshots from the primary.

§4.2.1, on resync: "it is acceptable to read a stale snapshot, so we
can optionally reduce load on the underlying storage by reading from a
replica instead."  :class:`ReadReplica` is that replica: it follows the
primary's commit history with a configurable apply lag and serves
versioned snapshot reads of whatever prefix it has applied.

The correctness subtlety this module exists to demonstrate (and test):
a watcher that resyncs from a *stale* snapshot at version v simply
re-watches from v — the watch stream replays the (v, now] suffix, so
the staleness costs catch-up time, never consistency.

The replica counts the snapshots it serves (``snapshots_served``) and
:class:`SnapshotCounter` counts the primary's; experiment A4 hands
either one's ``serve_snapshot`` to its caches as the snapshot function,
so it can show the load shift.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro._types import Key, KeyRange, Version
from repro.sim.kernel import Simulation
from repro.storage.history import CommittedTransaction
from repro.storage.kv import MVCCStore
from repro.storage.versioned_map import VersionedMap


class ReadReplica:
    """An asynchronously maintained, versioned copy of a primary store."""

    def __init__(
        self,
        sim: Simulation,
        primary: MVCCStore,
        apply_lag: float = 0.5,
        name: str = "replica",
    ) -> None:
        if apply_lag < 0:
            raise ValueError("apply_lag must be >= 0")
        self.sim = sim
        self.apply_lag = apply_lag
        self.name = name
        self._data = VersionedMap()
        self._applied_version: Version = 0
        self.snapshots_served = 0
        # bootstrap from the primary's current state, then follow
        bootstrap = primary.snapshot()
        self._data.load_snapshot(bootstrap.items(), bootstrap.version)
        self._applied_version = bootstrap.version
        primary.history.tail(self._on_commit)

    # ------------------------------------------------------------------
    # replication

    def _on_commit(self, commit: CommittedTransaction) -> None:
        def apply() -> None:
            if commit.version <= self._applied_version:
                return
            for key, mutation in commit.writes:
                self._data.apply(key, mutation, commit.version)
            self._applied_version = commit.version

        if self.apply_lag > 0:
            self.sim.call_after(self.apply_lag, apply)
        else:
            apply()

    # ------------------------------------------------------------------
    # reads

    def snapshot_items(self, key_range: KeyRange = KeyRange.all()) -> Dict[Key, Any]:
        """Materialized range snapshot at the applied version (stale but
        consistent)."""
        return self._data.items_at(key_range, self._applied_version)

    def serve_snapshot(self, key_range: KeyRange) -> Tuple[Version, Dict[Key, Any]]:
        """The resync-snapshot entry point (counted for load accounting)."""
        self.snapshots_served += 1
        return self._applied_version, self.snapshot_items(key_range)


class SnapshotCounter:
    """Wraps a primary store's snapshot path so A4 can count its load."""

    def __init__(self, store: MVCCStore) -> None:
        self.store = store
        self.snapshots_served = 0

    def serve_snapshot(self, key_range: KeyRange) -> Tuple[Version, Dict[Key, Any]]:
        self.snapshots_served += 1
        version = self.store.last_version
        return version, dict(self.store.scan(key_range, version))
