"""Range leases: the §3.2.2 mitigation and its availability cost.

"Some of the cases where change events are missed can be mitigated by
using a leasing mechanism to ensure that at most one cache server at a
time is allowed to acknowledge a change event from pubsub.  But leases
introduce an availability tradeoff because there will be times when
there is no owner for a range of keys."

:class:`LeaseManager` tracks one lease per assignment slice.  On
reassignment the departing holder's lease must *expire* before the new
owner may acquire — during that window :meth:`holder` returns None and
the experiment counts unavailability.  The safety invariant (at most
one holder per key at any instant) is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro._types import Key, KeyRange
from repro.sharding.assignment import Assignment
from repro.sim.kernel import Simulation


@dataclass
class Lease:
    """One active lease on a key range."""

    key_range: KeyRange
    holder: str
    expires_at: float


class LeaseManager:
    """Per-range leases with handoff-by-expiry."""

    #: how long an acquisition or renewal holds the range
    lease_duration = 1.0

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self._leases: List[Lease] = []
        #: who the sharder currently wants to own each range
        self._desired: Optional[Assignment] = None

    # ------------------------------------------------------------------
    # assignment side

    def on_assignment(self, assignment: Assignment) -> None:
        """Track the sharder's desired ownership.  Existing leases held
        by now-wrong owners are *not* revoked — they expire."""
        if self._desired is not None and assignment.generation <= self._desired.generation:
            return
        self._desired = assignment

    # ------------------------------------------------------------------
    # node side

    def try_acquire(self, node: str, key: Key) -> Optional[Lease]:
        """Node attempts to (re)acquire the lease for the range owning
        ``key``.  Succeeds iff the sharder wants ``node`` to own it and
        no conflicting unexpired lease exists."""
        if self._desired is None or self._desired.owner_of(key) != node:
            return None
        desired_range = self._desired.slice_for(key).key_range
        now = self.sim.now()
        self._expire(now)
        for lease in self._leases:
            if not lease.key_range.overlaps(desired_range):
                continue
            if lease.holder == node:
                # renewal (only for the same range shape)
                if lease.key_range == desired_range:
                    lease.expires_at = now + self.lease_duration
                    return lease
                return None
            return None  # someone else still holds an overlapping lease
        lease = Lease(desired_range, node, now + self.lease_duration)
        self._leases.append(lease)
        return lease

    def release(self, node: str, key: Key) -> bool:
        """Voluntarily release (graceful handoff shortens the gap)."""
        now = self.sim.now()
        for lease in self._leases:
            if lease.holder == node and lease.key_range.contains(key) and lease.expires_at > now:
                lease.expires_at = now
                return True
        return False

    # ------------------------------------------------------------------
    # queries

    def holder(self, key: Key) -> Optional[str]:
        """Current unexpired lease holder for ``key`` (None during
        handoff gaps — the availability cost)."""
        now = self.sim.now()
        self._expire(now)
        for lease in self._leases:
            if lease.key_range.contains(key) and lease.expires_at > now:
                return lease.holder
        return None

    def active_leases(self) -> List[Lease]:
        self._expire(self.sim.now())
        return list(self._leases)

    def _expire(self, now: float) -> None:
        self._leases = [lease for lease in self._leases if lease.expires_at > now]
