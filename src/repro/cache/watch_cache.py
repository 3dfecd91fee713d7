"""Watch-based cache node: the §4.3 alternative.

Each node maintains one :class:`~repro.core.linked_cache.LinkedCache`
per assigned key range.  On a handoff the node drops the departed
range's linked cache and creates one for the gained range, which
snapshots the store and watches from the snapshot version — so there is
no interleaving of "who gets the invalidation": the new owner's
snapshot-then-watch protocol *cannot* miss an update, no matter how the
handoff raced with writes.  (The brief sync window is visible as
unavailability, the honest cost; experiment E3 reports it.)

The node serves eventually-consistent reads (``serve``); thanks to
progress events its linked caches also answer snapshot-consistent reads
(:meth:`~repro.core.linked_cache.LinkedCache.read_at`) — the capability
pubsub caches cannot offer at all.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro._types import Key, KeyRange, Version
from repro.cache.node import CacheEntry
from repro.core.linked_cache import LinkedCache, LinkedCacheConfig
from repro.sharding.assignment import Assignment
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore


class WatchCacheNode:
    """A dynamically sharded, watch-fed cache node."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        store: MVCCStore,
        watchable,
        cache_config: Optional[LinkedCacheConfig] = None,
        tracer=None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.store = store
        self.watchable = watchable
        self.cache_config = cache_config or LinkedCacheConfig(snapshot_latency=0.02)
        self.tracer = tracer
        self._caches: Dict[KeyRange, LinkedCache] = {}
        self._owned_generation = -1
        self.hits = 0
        self.not_owner = 0
        self.unavailable = 0

    # ------------------------------------------------------------------
    # sharder listener

    def on_assignment(self, assignment: Assignment) -> None:
        if assignment.generation <= self._owned_generation:
            return
        self._owned_generation = assignment.generation
        new_ranges = set(assignment.ranges_of(self.name))
        for key_range in list(self._caches):
            if key_range not in new_ranges:
                self._caches.pop(key_range).stop()
        for key_range in new_ranges:
            if key_range not in self._caches:
                cache = LinkedCache(
                    self.sim,
                    self.watchable,
                    self._snapshot_fn,
                    key_range,
                    config=self.cache_config,
                    name=f"{self.name}:{key_range}",
                    tracer=self.tracer,
                )
                self._caches[key_range] = cache
                cache.start()

    def _snapshot_fn(self, key_range: KeyRange) -> Tuple[Version, Dict[Key, Any]]:
        version = self.store.last_version
        return version, dict(self.store.scan(key_range, version))

    # ------------------------------------------------------------------
    # serving

    def _cache_for(self, key: Key) -> Optional[LinkedCache]:
        for key_range, cache in self._caches.items():
            if key_range.contains(key):
                return cache
        return None

    def serve(self, key: Key) -> Tuple[str, Optional[Any]]:
        """('hit', value) | ('unavailable', None) mid-sync |
        ('not_owner', None)."""
        cache = self._cache_for(key)
        if cache is None:
            self.not_owner += 1
            return ("not_owner", None)
        if not cache.available:
            self.unavailable += 1
            return ("unavailable", None)
        self.hits += 1
        return ("hit", cache.get_latest(key))

    def peek(self, key: Key) -> Optional[CacheEntry]:
        """Entry-style view for the shared staleness audit.

        A tombstone is not a servable entry: reads of a deleted key
        return nothing, so it cannot serve a stale value."""
        cache = self._cache_for(key)
        if cache is None or not cache.available:
            return None
        version = cache.data.latest_version(key)
        value = cache.data.get_latest(key)
        if version is None or value is None:
            return None
        return CacheEntry(value=value, version=version, cached_at=0.0)

    @property
    def resync_count(self) -> int:
        return sum(c.resync_count for c in self._caches.values())

    @property
    def events_applied(self) -> int:
        return sum(c.events_applied for c in self._caches.values())
