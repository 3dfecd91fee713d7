"""Timestamp oracle: the source of monotonic transaction versions.

The paper's watch API assumes "the source of truth has monotonic
transaction versions, e.g. TrueTime timestamps in Spanner, TSO
timestamps in TiDB, gtid in MySQL" (§4.2).  A single in-process oracle
gives exactly that guarantee; all stores in a simulation share one
oracle so versions are comparable across stores (useful when an
experiment watches both a desired-state and an actual-state store, §4.3).
"""

from __future__ import annotations

from repro._types import Version, VERSION_ZERO


class TimestampOracle:
    """Issues strictly increasing integer versions."""

    __slots__ = ("_last",)

    def __init__(self) -> None:
        self._last = VERSION_ZERO

    def next(self) -> Version:
        """Allocate and return the next version (strictly > all previous)."""
        self._last += 1
        return self._last

    @property
    def last(self) -> Version:
        """The most recently issued version (VERSION_ZERO if none)."""
        return self._last
