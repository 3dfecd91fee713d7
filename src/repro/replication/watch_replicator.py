"""Watch-based replication: concurrent *and* point-in-time consistent.

The §4.3 design: R range watchers feed a staging area concurrently
(scaling like the concurrent pubsub appliers), but the target's
*externalized* state only advances at progress barriers:

1. each watcher stages ``(key, mutation, version)`` as events arrive
   (staging is private — not externalized);
2. each range-scoped progress event advances that range's frontier;
3. whenever the minimum frontier across ranges rises, all staged
   versions at or below it are applied to the target atomically
   **per source version, in version order** — so the target steps
   through exactly the source's commit states.

Initial sync is a source snapshot applied as one transaction (the
source state at the snapshot version), after which watching starts at
that version — the same snapshot+watch recovery used everywhere in the
proposed model.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro._types import Key, KeyRange, Mutation, Version
from repro.core.api import WatchCallback
from repro.core.events import ChangeEvent, ProgressEvent
from repro.core.stream import WatcherConfig
from repro.replication.target import ReplicaStore
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore


class _RangeWatcher(WatchCallback):
    """One range's feed into the shared staging area."""

    def __init__(self, replicator: "WatchReplicator", key_range: KeyRange) -> None:
        self.replicator = replicator
        self.key_range = key_range
        self.frontier: Version = 0
        self.events = 0

    def on_event(self, event: ChangeEvent) -> None:
        self.events += 1
        self.replicator._stage(event)

    def on_progress(self, event: ProgressEvent) -> None:
        if event.key_range.contains_range(self.key_range) or self.key_range.contains_range(
            event.key_range
        ) or event.key_range.overlaps(self.key_range):
            if event.version > self.frontier:
                self.frontier = event.version
                self.replicator._advance()

    def on_resync(self) -> None:
        self.replicator._resync(self)


#: per-event apply time at the target
SERVICE_TIME = 0.008
#: time to snapshot the source (initial sync and every resync)
SNAPSHOT_LATENCY = 0.01
_WATCHER_CONFIG = WatcherConfig(service_time=SERVICE_TIME)


class WatchReplicator:
    """Replicates a source store to a target via watch + progress."""

    def __init__(
        self,
        sim: Simulation,
        source: MVCCStore,
        watchable,
        target: ReplicaStore,
        ranges: Sequence[KeyRange],
    ) -> None:
        if not ranges:
            raise ValueError("need at least one range")
        self.sim = sim
        self.source = source
        self.watchable = watchable
        self.target = target
        self.ranges = list(ranges)
        self._watchers: List[_RangeWatcher] = []
        self._handles: List = []
        #: staged writes per source version (not yet externalized)
        self._staged: Dict[Version, List[Tuple[Key, Mutation]]] = {}
        self._externalized: Version = 0
        self.txns_externalized = 0
        self.events_staged = 0
        self.resyncs = 0
        self._started = False
        self._resyncing = False

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        """Snapshot the source, install it, and start range watchers."""
        if self._started:
            raise RuntimeError("already started")
        self._started = True
        self.sim.call_after(SNAPSHOT_LATENCY, self._initial_sync)

    def _initial_sync(self) -> None:
        version = self.source.last_version
        items = dict(self.source.scan())
        writes = [(key, Mutation.put(value)) for key, value in items.items()]
        if writes:
            self.target.apply_txn(writes, version)
            self.txns_externalized += 1
        self._externalized = version
        for key_range in self.ranges:
            watcher = _RangeWatcher(self, key_range)
            watcher.frontier = version
            self._watchers.append(watcher)
            self._handles.append(self.watchable.watch_range(
                key_range,
                version,
                watcher,
                config=_WATCHER_CONFIG,
            ))

    # ------------------------------------------------------------------
    # staging & the progress barrier

    def _stage(self, event: ChangeEvent) -> None:
        if event.version <= self._externalized:
            return  # duplicate after resync
        self.events_staged += 1
        self._staged.setdefault(event.version, []).append((event.key, event.mutation))

    def _advance(self) -> None:
        if self._resyncing:
            return  # the barrier is paused until recovery completes
        frontier = min(w.frontier for w in self._watchers)
        if frontier <= self._externalized:
            return
        ready = sorted(v for v in self._staged if v <= frontier)
        for version in ready:
            self.target.apply_txn(self._staged.pop(version), version)
            self.txns_externalized += 1
        self._externalized = frontier

    # ------------------------------------------------------------------
    # resync

    def _resync(self, watcher: _RangeWatcher) -> None:
        """Any range falling behind triggers a *coordinated* resync of
        the whole replicator.

        A per-range snapshot would mix source versions across ranges in
        one externalized state — a snapshot-consistency violation (the
        kitchen-sink integration test caught exactly that).  Instead the
        barrier pauses, every watch is dropped, one snapshot of the
        whole keyspace is taken at a single source version and applied
        as one transaction (including deletes for vanished keys), and
        all ranges re-watch from that version.  The target only ever
        shows source states.
        """
        if self._resyncing:
            return  # a coordinated recovery is already in flight
        self._resyncing = True
        self.resyncs += 1
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()

        def do_snapshot() -> None:
            version = self.source.last_version
            items = dict(self.source.scan())
            writes: List[Tuple[Key, Mutation]] = []
            for key in self.target.items():
                if key not in items:
                    writes.append((key, Mutation.delete()))
            writes.extend(
                (key, Mutation.put(value)) for key, value in items.items()
            )
            if writes:
                self.target.apply_txn(writes, version)
                self.txns_externalized += 1
            self._staged.clear()  # the re-watch replays everything > version
            self._externalized = version
            self._resyncing = False
            for range_watcher in self._watchers:
                range_watcher.frontier = version
                self._handles.append(self.watchable.watch_range(
                    range_watcher.key_range,
                    version,
                    range_watcher,
                    config=_WATCHER_CONFIG,
                ))

        self.sim.call_after(SNAPSHOT_LATENCY, do_snapshot)

    # ------------------------------------------------------------------
    # introspection

    def lag(self) -> int:
        """Source versions not yet externalized."""
        return max(0, self.source.last_version - self._externalized)
