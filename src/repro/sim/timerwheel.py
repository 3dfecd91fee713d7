"""Hierarchical timer wheel for the simulation kernel.

At edge scale (E14: 100k-1M client sessions) the kernel's binary heap
degrades for *timers*: every reconnect backoff, keepalive, and retry
deadline pays O(log n) against a heap whose n is dominated by far-
future timers — most of which are cancelled before they fire and then
linger as tombstones.  The wheel gives those timers O(1) insert and
cancel, so timer cost is O(fired), not O(scheduled).

Design (see ``docs/scale.md``):

- ``levels`` wheels of ``slots`` buckets each, at geometrically coarser
  resolution (level ``k`` covers ``slots**(k+1)`` ticks of
  ``resolution`` seconds).  An entry lands in the finest level whose
  horizon covers its delay; coarser entries *cascade* down one level at
  a time as the wheel turns past level boundaries.
- **The kernel heap is the finest level.**  When a level-0 slot comes
  due, :meth:`advance` bulk-transfers its entries into the heap, which
  C-sorts them by ``(time, seq)`` exactly as if they had been pushed at
  schedule time — so the observable firing order is **identical** to a
  single heap (byte-identical experiment output is a hard invariant,
  asserted by the determinism suites).  The wheel is a parking
  structure, never an ordering structure: all ordering stays in C.
- The split is deliberate: *near* timers (within one slot, i.e. the
  delivery-latency/service-time hot path) skip the wheel entirely —
  they fire soon, so they keep the heap shallow on their own and pay
  zero new overhead.  *Far* timers (backoffs, keepalives, retention
  sweeps) park here at O(1) instead of bloating the heap for seconds
  or hours.
- Entries are the kernel's plain event lists ``[time, seq, fn, label,
  cancelled]`` — the wheel never wraps them, so cancellation stays a
  flag write shared with the heap path, and a cancelled parked entry
  is dropped at transfer/cascade time without ever being sorted.
  :meth:`advance`/:meth:`compact` report drops so the kernel's
  tombstone accounting stays exact.

Float safety: bucket index math uses a "never late" guard — an entry's
computed slot may start *at or before* its timestamp, never after.
Transferring an entry one slot early is harmless (the heap orders it);
transferring late would reorder events.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Dict, List

#: indices into a kernel event entry [time, seq, fn, label, cancelled]
_TIME, _SEQ, _FN, _LABEL, _CANCELLED = range(5)


class TimerWheel:
    """Hierarchical timer wheel parking far-future kernel events."""

    __slots__ = (
        "origin", "resolution", "slots", "levels",
        "_buckets", "_counts", "_count", "_cur", "_due", "_near",
        "_spans", "_inv_res",
        "inserted", "rejected", "cascaded", "transferred",
    )

    def __init__(
        self,
        origin: float = 0.0,
        resolution: float = 0.25,
        slots: int = 256,
        levels: int = 3,
    ) -> None:
        if resolution <= 0:
            raise ValueError("resolution must be > 0")
        if slots < 2 or levels < 1:
            raise ValueError("need at least 2 slots and 1 level")
        self.origin = origin
        self.resolution = resolution
        self._inv_res = 1.0 / resolution
        self.slots = slots
        self.levels = levels
        #: per level: ``slots`` buckets of event entries
        self._buckets: List[List[List[Any]]] = [
            [[] for _ in range(slots)] for _ in range(levels)
        ]
        #: parked entries (live + tombstones) per level / total
        self._counts = [0] * levels
        self._count = 0
        #: absolute index of the next level-0 slot not yet transferred,
        #: and that slot's start time (the wheel's next-due bound: no
        #: parked entry can fire before it)
        self._cur = 0
        self._due = origin
        #: parking pays only for entries at least one slot out; the
        #: kernel pre-filters with one float compare against this
        #: (monotone, so a stale value only over-routes to the heap)
        self._near = origin + resolution
        #: ``slots ** (k+1)`` — level k's horizon in level-0 ticks
        self._spans = [slots ** (k + 1) for k in range(levels)]
        self.inserted = 0
        self.rejected = 0
        self.cascaded = 0
        self.transferred = 0

    # ------------------------------------------------------------------
    # geometry

    def _slot_of(self, t: float) -> int:
        """Absolute level-0 slot containing time ``t`` (never-late guard:
        the returned slot's start is <= ``t`` in computed arithmetic)."""
        s = int((t - self.origin) * self._inv_res)
        while self.origin + s * self.resolution > t:
            s -= 1
        return s

    @property
    def size(self) -> int:
        """Parked entries, including cancelled ones not yet dropped."""
        return self._count

    def stats(self) -> Dict[str, int]:
        """Routing counters (E14 reports these)."""
        return {
            "inserted": self.inserted,
            "rejected": self.rejected,
            "cascaded": self.cascaded,
            "transferred": self.transferred,
        }

    # ------------------------------------------------------------------
    # insert

    def insert(self, entry: List[Any], now: float) -> bool:
        """Try to park ``entry``; False means "heap-push it instead".

        Rejects near entries (inside the current slot — they fire too
        soon for parking to pay), entries behind the current tick, and
        entries beyond the top level's horizon.
        """
        origin = self.origin
        resolution = self.resolution
        if self._count == 0:
            # empty wheel: fast-forward past idle slots so advance()
            # never walks them.  now <= entry time keeps this safe.
            cur = int((now - origin) * self._inv_res)
            while origin + cur * resolution > now:
                cur -= 1
            if cur > self._cur:
                self._cur = cur
                self._due = origin + cur * resolution
                self._near = self._due + resolution
        t = entry[0]
        s = int((t - origin) * self._inv_res)
        while origin + s * resolution > t:
            s -= 1
        delta = s - self._cur
        if delta < 1:
            self.rejected += 1
            return False
        slots = self.slots
        if delta < slots:
            self._buckets[0][s % slots].append(entry)
            self._counts[0] += 1
        else:
            spans = self._spans
            if delta >= spans[-1]:
                self.rejected += 1
                return False
            level = 1
            while delta >= spans[level]:
                level += 1
            self._buckets[level][(s // slots ** level) % slots].append(entry)
            self._counts[level] += 1
        self._count += 1
        self.inserted += 1
        return True

    # ------------------------------------------------------------------
    # turning

    def advance(self, bound: float, heap: List[List[Any]]) -> int:
        """Transfer every slot whose start is <= ``bound`` into ``heap``,
        stopping early once the heap head provably precedes everything
        still parked.  Returns tombstones dropped."""
        dropped = 0
        moved = 0
        res = self.resolution
        origin = self.origin
        slots = self.slots
        counts = self._counts
        b0 = self._buckets[0]
        cur = self._cur
        start = self._due
        try:
            while self._count:
                if start > bound:
                    break
                if heap and heap[0][0] < start:
                    # everything still parked fires at >= start, strictly
                    # after the heap head — transfer can wait
                    break
                if cur % slots == 0 and self._count > counts[0]:
                    dropped += self._cascade(cur)
                    if not self._count:
                        break
                if counts[0]:
                    idx = cur % slots
                    bucket = b0[idx]
                    if bucket:
                        b0[idx] = []
                        n = len(bucket)
                        counts[0] -= n
                        self._count -= n
                        for e in bucket:
                            if e[_CANCELLED]:
                                dropped += 1
                            else:
                                heappush(heap, e)
                                moved += 1
                    cur += 1
                    start = origin + cur * res
                else:
                    # level 0 is idle: skip straight to the next boundary
                    # of the finest occupied level (its cascade may refill
                    # L0; boundaries of coarser occupied levels are
                    # multiples of it, so none are jumped over)
                    level = 1
                    while not counts[level]:
                        level += 1
                    span = slots ** level
                    cur = (cur // span + 1) * span
                    start = origin + cur * res
        finally:
            self._cur = cur
            self._due = start
            self._near = start + res
            self.transferred += moved
        return dropped

    def _cascade(self, cur: int) -> int:
        """Move due entries from coarser levels down; keep aliased
        entries (same bucket, a future revolution) where they are.

        Levels are processed coarsest-first on purpose: an entry
        cascading from level 2 whose slot is inside the *current*
        level-1 revolution lands in the level-1 bucket this same call
        is about to process, and settles all the way to level 0.
        """
        dropped = 0
        slots = self.slots
        origin = self.origin
        resolution = self.resolution
        inv_res = self._inv_res
        counts = self._counts
        for level in range(self.levels - 1, 0, -1):
            span = slots ** level
            if cur % span or not counts[level]:
                continue
            lslot = cur // span
            bucket = self._buckets[level][lslot % slots]
            if not bucket:
                continue
            keep: List[List[Any]] = []
            moved_down = 0
            removed = 0
            b_low = self._buckets[level - 1]
            low_span = span // slots
            for e in bucket:
                if e[_CANCELLED]:
                    dropped += 1
                    removed += 1
                    continue
                t = e[0]
                s = int((t - origin) * inv_res)
                while origin + s * resolution > t:
                    s -= 1
                if s // span != lslot:
                    keep.append(e)  # aliased: a future revolution
                    continue
                moved_down += 1
                self.cascaded += 1
                # cur == lslot * span, so delta = s - cur < span ticks:
                # one level down always covers it
                if level == 1:
                    b_low[s % slots].append(e)
                else:
                    b_low[(s // low_span) % slots].append(e)
            if moved_down or removed:
                self._buckets[level][lslot % slots] = keep
                counts[level] -= moved_down + removed
                counts[level - 1] += moved_down
                self._count -= removed
        return dropped

    # ------------------------------------------------------------------
    # maintenance

    def compact(self) -> int:
        """Drop cancelled entries from every bucket.

        Returns the number removed (the kernel owns tombstone
        accounting).
        """
        dropped = 0
        for level in range(self.levels):
            count = 0
            for i, bucket in enumerate(self._buckets[level]):
                if not bucket:
                    continue
                live = [e for e in bucket if not e[_CANCELLED]]
                if len(live) != len(bucket):
                    dropped += len(bucket) - len(live)
                    self._buckets[level][i] = live
                count += len(live)
            delta = self._counts[level] - count
            self._counts[level] = count
            self._count -= delta
        return dropped
