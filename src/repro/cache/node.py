"""A cache pod: entries, fetch-on-miss, TTL, and an ownership view.

The node serves only keys it believes it owns.  Its belief comes from
auto-sharder notifications that arrive with per-node latency — so two
nodes can simultaneously believe they own a key (or neither), which is
the raw material of the Figure 2 race.

On losing a range the node drops the range's entries (standard
hygiene); the paper's race is *not* about forgetting to drop — it is
about the invalidation going to the wrong node afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro._types import Key, KeyRange, Version
from repro.obs.trace import hops
from repro.sharding.assignment import Assignment
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore


@dataclass
class CacheEntry:
    """One cached value."""

    value: Any
    version: Version
    cached_at: float


#: latency of a fill read against the backing store
FETCH_LATENCY = 0.01


@dataclass
class CacheNodeConfig:
    """Node behaviour."""

    #: Entry TTL; None disables expiry (the paper's point: without a
    #: fallback, a missed invalidation is stale *forever*).
    ttl: Optional[float] = None

    def __post_init__(self) -> None:
        if self.ttl is not None and self.ttl <= 0:
            raise ValueError("ttl must be positive when set")


class CacheNode:
    """Demand-filled cache with an ownership view."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        store: MVCCStore,
        config: Optional[CacheNodeConfig] = None,
        tracer=None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.store = store
        self.config = config or CacheNodeConfig()
        self.tracer = tracer
        self._entries: Dict[Key, CacheEntry] = {}
        self._owned: List[KeyRange] = []
        self._owned_generation = -1
        self._fills_pending: Dict[Key, bool] = {}
        self.hits = 0
        self.not_owner = 0
        self.fills = 0
        self.invalidations_applied = 0

    # ------------------------------------------------------------------
    # ownership (sharder listener; called with per-node latency)

    def on_assignment(self, assignment: Assignment) -> None:
        if assignment.generation <= self._owned_generation:
            return  # stale notification
        self._owned_generation = assignment.generation
        new_owned = assignment.ranges_of(self.name)
        # drop entries for ranges we no longer own
        for key in list(self._entries):
            if not any(r.contains(key) for r in new_owned):
                del self._entries[key]
        self._owned = new_owned

    def owns(self, key: Key) -> bool:
        """This node's *belief* about owning ``key`` (possibly stale)."""
        return any(r.contains(key) for r in self._owned)

    @property
    def owned_ranges(self) -> List[KeyRange]:
        return list(self._owned)

    # ------------------------------------------------------------------
    # serving

    def serve(self, key: Key) -> Tuple[str, Optional[Any]]:
        """Serve a read: ('hit', value) | ('miss', None) | ('not_owner',
        None).  A miss starts an async fill from the store."""
        if not self.owns(key):
            self.not_owner += 1
            return ("not_owner", None)
        entry = self._entries.get(key)
        if entry is not None and not self._expired(entry):
            self.hits += 1
            return ("hit", entry.value)
        self._start_fill(key)
        return ("miss", None)

    def _expired(self, entry: CacheEntry) -> bool:
        ttl = self.config.ttl
        return ttl is not None and self.sim.now() - entry.cached_at > ttl

    def _start_fill(self, key: Key) -> None:
        if self._fills_pending.get(key):
            return
        self._fills_pending[key] = True

        def fill() -> None:
            self._fills_pending.pop(key, None)
            if not self.owns(key):
                return  # lost the range while fetching
            versioned = self.store.get_versioned(key)
            if versioned is None:
                self._entries.pop(key, None)
                return
            version, value = versioned
            existing = self._entries.get(key)
            if existing is not None and existing.version > version:
                return  # a fresher invalidation-fill already landed
            self.fills += 1
            self._entries[key] = CacheEntry(value, version, self.sim.now())

        self.sim.call_after(FETCH_LATENCY, fill)

    # ------------------------------------------------------------------
    # invalidation entry point (pipelines call this)

    def apply_invalidation(self, key: Key, version: Version) -> None:
        """Drop the cached entry if it is older than ``version``; the
        next read refills from the store."""
        entry = self._entries.get(key)
        applied = entry is not None and entry.version < version
        if applied:
            del self._entries[key]
            self.invalidations_applied += 1
        if self.tracer is not None:
            # recorded even when no entry was dropped: the invalidation
            # *reached* this node, which is what the causal chain tracks
            self.tracer.record(
                hops.CACHE_APPLY, self.name,
                key=key, version=version, node=self.name, applied=applied,
            )

    # ------------------------------------------------------------------
    # inspection (experiments / audits)

    def peek(self, key: Key) -> Optional[CacheEntry]:
        """The cached entry regardless of ownership/TTL (None if absent
        or TTL-expired — an expired entry cannot serve a stale read)."""
        entry = self._entries.get(key)
        if entry is None or self._expired(entry):
            return None
        return entry
