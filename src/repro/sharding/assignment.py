"""Key-range assignments.

An :class:`Assignment` is a complete, non-overlapping partition of the
keyspace into :class:`Slice` objects, each owned by one node, stamped
with a generation number.  Assignments are immutable; the auto-sharder
produces a new generation for every change, and listeners compare
generations to discard stale notifications.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro._types import KEY_MAX, KEY_MIN, Key, KeyRange


@dataclass(frozen=True)
class Slice:
    """One owned key range."""

    key_range: KeyRange
    node: str

    def __str__(self) -> str:
        return f"{self.key_range}->{self.node}"


class Assignment:
    """Immutable, complete partition of the keyspace over nodes."""

    def __init__(self, generation: int, slices: Sequence[Slice]) -> None:
        ordered = sorted(slices, key=lambda s: s.key_range.low)
        self._validate(ordered)
        self.generation = generation
        self.slices: Tuple[Slice, ...] = tuple(ordered)
        self._lows: List[Key] = [s.key_range.low for s in ordered]

    @staticmethod
    def _validate(ordered: Sequence[Slice]) -> None:
        if not ordered:
            raise ValueError("assignment must cover the keyspace (no slices)")
        if ordered[0].key_range.low != KEY_MIN:
            raise ValueError(f"gap before first slice {ordered[0]}")
        for prev, cur in zip(ordered, ordered[1:]):
            if prev.key_range.high != cur.key_range.low:
                raise ValueError(f"gap/overlap between {prev} and {cur}")
        if ordered[-1].key_range.high != KEY_MAX:
            raise ValueError(f"gap after last slice {ordered[-1]}")

    @staticmethod
    def single(node: str, generation: int = 0) -> "Assignment":
        """Everything owned by one node."""
        return Assignment(generation, [Slice(KeyRange.all(), node)])

    @staticmethod
    def even(nodes: Sequence[str], boundaries: Sequence[Key], generation: int = 0) -> "Assignment":
        """Assign ranges split at ``boundaries`` round-robin to ``nodes``."""
        if not nodes:
            raise ValueError("need at least one node")
        bounds = [KEY_MIN, *sorted(boundaries), KEY_MAX]
        slices = [
            Slice(KeyRange(bounds[i], bounds[i + 1]), nodes[i % len(nodes)])
            for i in range(len(bounds) - 1)
            if bounds[i] < bounds[i + 1]
        ]
        return Assignment(generation, slices)

    # ------------------------------------------------------------------
    # queries

    def slice_for(self, key: Key) -> Slice:
        """The slice containing ``key``."""
        idx = bisect.bisect_right(self._lows, key) - 1
        return self.slices[idx]

    def owner_of(self, key: Key) -> str:
        return self.slice_for(key).node

    def ranges_of(self, node: str) -> List[KeyRange]:
        """All ranges owned by ``node`` (possibly empty)."""
        return [s.key_range for s in self.slices if s.node == node]

    def nodes(self) -> List[str]:
        return sorted({s.node for s in self.slices})

    def __repr__(self) -> str:  # pragma: no cover
        return f"Assignment(gen={self.generation}, {len(self.slices)} slices)"
