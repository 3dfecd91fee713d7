"""The consumer side of the watch protocol: a linked cache.

"Applications may directly implement the watch callback interface, or
may leverage linked caches similar to [2] that speak that protocol"
(§4.2.1).  :class:`LinkedCache` is that client, and the building block
for the cache nodes, replication appliers, and reconciler workers in
this reproduction.  It owns the full client state machine:

1. **sync** — read a snapshot of its key range from the exposed store
   (possibly stale, possibly from a replica: the snapshot function is
   pluggable), load it, and reset knowledge to ``[v_snap, v_snap]``;
2. **watch** — watch from the snapshot version; apply each change event
   into a local :class:`~repro.storage.versioned_map.VersionedMap`; extend
   knowledge windows on each range-scoped progress event;
3. **resync** — on ``on_resync`` (producer-side retention loss, watcher
   backlog overflow, or watch-system wipe), drop to step 1.  Recovery
   is *programmatic* — no operator, no data loss; its duration is
   recorded so experiments can report time-to-recover (§4.4).

Reads come in two consistencies, both local:

- :meth:`get_latest` — eventually consistent, best effort;
- :meth:`read_at` / :meth:`snapshot_read` — snapshot reads, answered
  only when the knowledge map proves completeness (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro._types import Key, KeyRange, Version
from repro.core.api import Cancellable, WatchCallback
from repro.core.events import ChangeEvent, ProgressEvent
from repro.core.knowledge import KnowledgeMap
from repro.core.stream import WatcherConfig
from repro.obs.trace import hops
from repro.sim.kernel import Simulation
from repro.sim.metrics import MetricsRegistry
from repro.storage.versioned_map import VersionedMap

#: Reads a snapshot of a key range: returns (snapshot version, items).
SnapshotFn = Callable[[KeyRange], Tuple[Version, Dict[Key, Any]]]


class SnapshotUnavailable(RuntimeError):
    """Raised by a snapshot function that cannot serve right now (e.g. a
    relay that is itself mid-resync); the linked cache retries after its
    snapshot latency instead of failing."""


@dataclass
class LinkedCacheConfig:
    """Client behaviour parameters."""

    #: Time to fetch a snapshot from the store (§4.2.1 notes this can be
    #: served by a replica; model that by passing a cheaper latency and
    #: a staler snapshot_fn).
    snapshot_latency: float = 0.05
    #: Per-watch delivery parameters (service time models a slow client).
    watcher: WatcherConfig = field(default_factory=WatcherConfig)

    def __post_init__(self) -> None:
        if self.snapshot_latency < 0:
            raise ValueError("snapshot_latency must be >= 0")


class LinkedCache(WatchCallback):
    """Materialized, versioned view of a watched key range."""

    def __init__(
        self,
        sim: Simulation,
        watchable,  # WatchSystem or StoreWatch (anything with watch_range)
        snapshot_fn: SnapshotFn,
        key_range: KeyRange,
        config: Optional[LinkedCacheConfig] = None,
        name: str = "cache",
        tracer=None,
    ) -> None:
        self.sim = sim
        self.watchable = watchable
        self.snapshot_fn = snapshot_fn
        self.key_range = key_range
        self.config = config or LinkedCacheConfig()
        self.name = name
        self.metrics = MetricsRegistry()
        self.tracer = tracer
        self.data = VersionedMap()
        self.knowledge = KnowledgeMap()
        self.state = "idle"  # idle | syncing | watching | stopped
        self._watch_handle: Optional[Cancellable] = None
        self._sync_generation = 0
        # observability
        self.resync_count = 0
        self.snapshots_taken = 0
        self.events_applied = 0
        self.recovery_times: List[float] = []
        self._resync_started_at: Optional[float] = None
        #: consecutive resyncs without forward progress — drives
        #: exponential backoff so a stale snapshot source (e.g. a
        #: lagging replica below the watch floor) cannot cause a
        #: resync storm
        self._consecutive_resyncs = 0
        #: snapshots refused with SnapshotUnavailable, reported as
        #: ``resilience.snapshot.retries`` once nonzero
        self.snapshot_retries = 0
        self.metrics.register(self._counts)

    def _counts(self) -> Iterator[Tuple[str, int]]:
        if self.snapshot_retries:
            yield "resilience.snapshot.retries", self.snapshot_retries

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        """Begin the initial sync (snapshot then watch)."""
        if self.state != "idle":
            raise RuntimeError(f"cannot start cache in state {self.state!r}")
        self._begin_sync()

    def stop(self) -> None:
        self.state = "stopped"
        self._sync_generation += 1
        if self._watch_handle is not None:
            self._watch_handle.cancel()
            self._watch_handle = None

    def suspend(self) -> None:
        """Model the consumer going down: the watch is dropped and no
        callbacks are processed until :meth:`resume`.  Local state is
        kept (a restarting process with its disk intact)."""
        if self.state in ("stopped", "down"):
            return
        self._sync_generation += 1  # cancel any in-flight sync
        if self._watch_handle is not None:
            self._watch_handle.cancel()
            self._watch_handle = None
        self.state = "down"

    def resume(self) -> None:
        """Come back up and re-watch from the last known position; the
        producer side decides whether that position is still serviceable
        (catch-up) or stale (resync)."""
        if self.state != "down":
            return
        self.state = "watching"
        self._watch_handle = self.watchable.watch_range(
            self.key_range,
            self.knowledge.max_known_version(),
            self,
            config=self.config.watcher,
        )

    def set_key_range(self, key_range: KeyRange) -> None:
        """Change the watched range (auto-sharder handoff): drops the
        current watch and resyncs over the new range."""
        self.key_range = key_range
        if self.state == "stopped":
            return
        if self._watch_handle is not None:
            self._watch_handle.cancel()
            self._watch_handle = None
        self._begin_sync()

    def _begin_sync(self) -> None:
        self.state = "syncing"
        self._sync_generation += 1
        generation = self._sync_generation
        if self._resync_started_at is None:
            self._resync_started_at = self.sim.now()
        backoff = min(2 ** min(self._consecutive_resyncs, 6), 64)
        self.sim.call_after(
            self.config.snapshot_latency * backoff,
            lambda: self._finish_sync(generation),
        )

    def _finish_sync(self, generation: int) -> None:
        if generation != self._sync_generation or self.state == "stopped":
            return  # superseded by a newer sync or a stop
        try:
            version, items = self.snapshot_fn(self.key_range)
        except SnapshotUnavailable:
            # the snapshot source cannot serve right now; retry after
            # the snapshot latency
            self.snapshot_retries += 1
            self.sim.call_after(
                max(self.config.snapshot_latency, 0.01),
                lambda: self._finish_sync(generation),
            )
            return
        self.snapshots_taken += 1
        self.data.load_snapshot(items, version)
        self.knowledge.reset(self.key_range, version)
        self._watch_handle = self.watchable.watch_range(
            self.key_range, version, self, config=self.config.watcher
        )
        self.state = "watching"
        if self._resync_started_at is not None:
            self.recovery_times.append(self.sim.now() - self._resync_started_at)
            self._resync_started_at = None

    # ------------------------------------------------------------------
    # WatchCallback

    def on_event(self, event: ChangeEvent) -> None:
        if self.state != "watching":
            return
        self._consecutive_resyncs = 0  # forward progress
        self.events_applied += 1
        if self.tracer is not None:
            self.tracer.record(
                hops.WATCH_APPLY, self.name,
                key=event.key, version=event.version, cache=self.name,
            )
        self.data.apply(event.key, event.mutation, event.version)

    def on_progress(self, event: ProgressEvent) -> None:
        if self.state != "watching":
            return
        self._consecutive_resyncs = 0  # forward progress
        self.knowledge.extend(event.key_range, event.version)

    def on_resync(self) -> None:
        if self.state == "stopped":
            return
        self.resync_count += 1
        self._consecutive_resyncs += 1
        self._watch_handle = None  # session already terminated itself
        self._begin_sync()

    # ------------------------------------------------------------------
    # reads

    @property
    def available(self) -> bool:
        """True when serving (not mid-resync)."""
        return self.state == "watching"

    def get_latest(self, key: Key) -> Optional[Any]:
        """Eventually-consistent read of the newest locally known value."""
        return self.data.get_latest(key)

    def read_at(self, key: Key, version: Version) -> Tuple[bool, Optional[Any]]:
        """Snapshot read of one key: (known?, value).

        ``known`` is False when the knowledge map cannot prove the local
        state complete for (key, version); the caller should go to the
        store (or another watcher) instead of serving a possibly-wrong
        answer.
        """
        if not self.knowledge.knows_key(key, version):
            return (False, None)
        return (True, self.data.get_at(key, version))

    def snapshot_read(
        self, key_range: KeyRange, version: Version
    ) -> Optional[Dict[Key, Any]]:
        """Snapshot read of a range at ``version``; None if not provably
        complete."""
        if not self.knowledge.knows(key_range, version):
            return None
        return self.data.items_at(key_range, version)

    def best_snapshot_version(self, key_range: Optional[KeyRange] = None) -> Optional[Version]:
        """Newest version at which a snapshot of ``key_range`` (default:
        the whole watched range) can be served."""
        return self.knowledge.best_snapshot_version(key_range or self.key_range)

    def items_at(self, key_range: KeyRange, version: Version) -> Dict[Key, Any]:
        """Raw local range read at a version (no knowledge check) — used
        by the stitcher after it has validated coverage itself."""
        return self.data.items_at(key_range, version)
