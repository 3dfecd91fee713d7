"""Pubsub messages."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


@dataclass(slots=True, unsafe_hash=True)
class Message:
    """One published message as stored in a partition log.

    ``offset`` is assigned by the partition at append time and is unique
    and dense within the partition.  ``key`` is optional; key-based
    partitioning, key-affine routing, and compaction all require it.
    ``size`` feeds the hard-state accounting of experiment E8.

    Immutable by contract, not by enforcement: nothing assigns a field
    after :meth:`PartitionLog.append` builds the message, and the log's
    lazily summed ``bytes_written`` relies on that.  A slotted,
    non-frozen dataclass because a frozen one pays an
    ``object.__setattr__`` call per field on every append; equality,
    hash and fields are those of the frozen dataclass it replaced.
    """

    topic: str
    partition: int
    offset: int
    key: Optional[str]
    payload: Any
    publish_time: float

    def size(self) -> int:
        """Rough encoded size in bytes."""
        key_len = len(self.key) if self.key is not None else 0
        return 24 + key_len + len(repr(self.payload))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.topic}[{self.partition}]@{self.offset} "
            f"key={self.key!r})"
        )


from repro.sim.wire import register as _wire_register  # noqa: E402

_wire_register(
    Message,
    "pubsub.Message",
    ("topic", "partition", "offset", "key", "payload", "publish_time"),
)
