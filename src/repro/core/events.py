"""Watch-stream events (paper §4.2, verbatim structures).

``ChangeEvent`` carries one key mutation at a transaction version
("account A has balance $20 as of version 40").  ``ProgressEvent`` is
the punctuation of the stream: it asserts that *all* change events
affecting ``[low, high)`` with version <= ``version`` have been
supplied.  Progress events are scoped to key ranges rather than global
or static partitions — the property §4.2.2 credits with letting every
layer shard independently.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._types import Key, KeyRange, Mutation, Version


@dataclass(frozen=True)
class ChangeEvent:
    """``struct ChangeEvent { Key key; Mutation mutation; Version version; }``"""

    key: Key
    mutation: Mutation
    version: Version

    def size(self) -> int:
        """Rough encoded size (soft-state accounting, experiment E8)."""
        return len(self.key) + 8 + self.mutation.size()


@dataclass(frozen=True)
class ProgressEvent:
    """``struct ProgressEvent { Key low; Key high; Version version; }``

    Contract (punctuation soundness): after a watcher receives
    ``ProgressEvent(low, high, v)``, it will never receive a
    ``ChangeEvent`` with ``low <= key < high`` and ``version <= v``.
    """

    low: Key
    high: Key
    version: Version

    @property
    def key_range(self) -> KeyRange:
        return KeyRange(self.low, self.high)


from repro.sim.wire import register as _wire_register  # noqa: E402

_wire_register(ChangeEvent, "core.ChangeEvent", ("key", "mutation", "version"))
_wire_register(ProgressEvent, "core.ProgressEvent", ("low", "high", "version"))
