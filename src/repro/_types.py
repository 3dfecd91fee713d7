"""Core value types shared across the library.

Keys, versions, and mutations are the vocabulary of both systems under
study: the pubsub broker carries ``(key, payload)`` messages, the store
applies :class:`Mutation` objects at :class:`Version` timestamps, and the
watch API streams ``ChangeEvent(key, mutation, version)``.

Keys are plain strings ordered lexicographically; key *ranges* are
half-open ``[low, high)`` with ``KEY_MAX`` (a sentinel above every real
key) available as an exclusive upper bound for "the whole keyspace".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

#: Versions are integers issued by a timestamp oracle; strictly monotonic
#: across transactions (stand-in for TrueTime/TSO/gtid, §4.2).
Version = int

#: Version 0 is "before all data"; a watch from VERSION_ZERO streams
#: the full history (or triggers a resync if history was truncated).
VERSION_ZERO: Version = 0

#: Keys are unicode strings compared lexicographically.
Key = str

#: Exclusive upper bound sentinel greater than any real key.  Real keys
#: must sort strictly below it; we use the maximal unicode codepoint.
KEY_MAX: Key = "\U0010ffff"

#: Inclusive lower bound for "the whole keyspace".
KEY_MIN: Key = ""


class MutationKind(enum.Enum):
    """The kind of change a mutation applies."""

    PUT = "put"
    DELETE = "delete"


@dataclass(frozen=True)
class Mutation:
    """A single-key change: PUT with a value, or DELETE.

    Values are arbitrary Python objects; experiments mostly use small
    dicts or ints.  ``size`` estimates encoded bytes for the efficiency
    accounting in experiment E8.
    """

    kind: MutationKind
    value: Any = None

    @staticmethod
    def put(value: Any) -> "Mutation":
        return Mutation(MutationKind.PUT, value)

    @staticmethod
    def delete() -> "Mutation":
        return Mutation(MutationKind.DELETE, None)

    @property
    def is_delete(self) -> bool:
        return self.kind is MutationKind.DELETE

    def size(self) -> int:
        """Rough encoded size in bytes (for write-amplification accounting)."""
        if self.is_delete:
            return 8
        return 16 + len(repr(self.value))


@dataclass(frozen=True, order=True)
class KeyRange:
    """Half-open key range ``[low, high)``.

    ``KeyRange.all()`` covers the whole keyspace.  Ranges are the unit of
    watch subscription, progress reporting, sharder assignment, and
    knowledge-region bookkeeping, so the algebra here (contains /
    overlaps / intersect / subtract) is exercised everywhere.
    """

    low: Key
    high: Key

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"invalid range: low {self.low!r} > high {self.high!r}")

    @staticmethod
    def all() -> "KeyRange":
        return KeyRange(KEY_MIN, KEY_MAX)

    @staticmethod
    def single(key: Key) -> "KeyRange":
        """The range containing exactly ``key``."""
        return KeyRange(key, key + "\0")

    @property
    def empty(self) -> bool:
        return self.low >= self.high

    def contains(self, key: Key) -> bool:
        return self.low <= key < self.high

    def contains_range(self, other: "KeyRange") -> bool:
        if other.empty:
            return True
        return self.low <= other.low and other.high <= self.high

    def overlaps(self, other: "KeyRange") -> bool:
        if self.empty or other.empty:
            return False
        return self.low < other.high and other.low < self.high

    def intersect(self, other: "KeyRange") -> Optional["KeyRange"]:
        """Intersection, or None if disjoint/empty."""
        low = max(self.low, other.low)
        high = min(self.high, other.high)
        if low >= high:
            return None
        return KeyRange(low, high)

    def subtract(self, other: "KeyRange") -> list["KeyRange"]:
        """This range minus ``other``: zero, one, or two pieces."""
        if not self.overlaps(other):
            return [] if self.empty else [self]
        pieces = []
        if self.low < other.low:
            pieces.append(KeyRange(self.low, other.low))
        if other.high < self.high:
            pieces.append(KeyRange(other.high, self.high))
        return pieces

    def __str__(self) -> str:
        high = "MAX" if self.high == KEY_MAX else repr(self.high)
        return f"[{self.low!r}, {high})"


def ranges_cover(ranges: list[KeyRange], target: KeyRange) -> bool:
    """True if the union of ``ranges`` covers all of ``target``."""
    remaining = [target]
    for r in sorted(ranges):
        next_remaining: list[KeyRange] = []
        for piece in remaining:
            next_remaining.extend(piece.subtract(r))
        remaining = next_remaining
        if not remaining:
            return True
    return not remaining



# wire registration: mutations and ranges ride inside ChangeEvents and
# publish commands, so the codec must reconstruct real instances.  The
# import sits here (bottom of module) because repro.sim.wire is pulled
# in via the repro.sim package, which must finish importing first when
# something under repro.sim transitively reaches these types.
from repro.sim.wire import register as _wire_register  # noqa: E402

_wire_register(MutationKind, "types.MutationKind", ("value",), factory=MutationKind)
_wire_register(Mutation, "types.Mutation", ("kind", "value"))
_wire_register(KeyRange, "types.KeyRange", ("low", "high"))
