"""Per-worker LRU state cache.

"Affinitization is important for efficient work processing because it
enables consumers to cache state across ... ranges of keys they are
assigned" (§3.2.4).  Processing a task whose key's state is cached is
cheap (warm); otherwise the worker pays a cold penalty (loading state
from the database) and inserts the key.  The experiments compare warm
fractions across routing/sharding schemes.
"""

from __future__ import annotations

from collections import OrderedDict


class StateCache:
    """Bounded LRU set of keys whose state is loaded."""

    #: keys whose state one worker keeps loaded
    capacity = 256

    def __init__(self) -> None:
        self._entries: "OrderedDict[str, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def touch(self, key: str) -> bool:
        """Access ``key``'s state; returns True when warm (cached)."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._entries[key] = None
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return False

    def contains(self, key: str) -> bool:
        """Non-mutating membership check (for service-time estimation)."""
        return key in self._entries

    def drop_outside(self, predicate) -> int:
        """Drop cached keys failing ``predicate`` (range handoffs);
        returns count dropped."""
        doomed = [k for k in self._entries if not predicate(k)]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
