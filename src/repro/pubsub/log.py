"""Partition logs: the hidden durable storage layer of pubsub.

Each topic partition is an append-only log of messages addressed by
dense offsets.  The log embodies the two §3.1 behaviours the paper
criticizes:

- **Retention GC** (:class:`RetentionPolicy`): messages older than the
  retention period (or beyond a size bound) are deleted *regardless of
  whether any consumer has processed them*.  The log keeps only a
  ``gc_floor``; consumers whose cursor is below the floor silently skip
  ahead — they are not notified, mirroring deployed systems.
- **Compaction** (:class:`CompactionPolicy`): for keyed topics, offsets
  older than the compaction window keep only the latest message per
  key.  Intermediate versions vanish; again without notification.

The log counts every byte appended (``bytes_written``) because the
paper's efficiency argument (§4.4) is that this is a *second* durable
log that the unbundled model does not need.  Only that accounting reads
the count, so the log sizes messages when the count is read, or just
before GC or compaction deletes them, never on the append path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.pubsub.message import Message


@dataclass(frozen=True)
class RetentionPolicy:
    """Bounds on retained messages.

    ``max_age`` deletes messages whose publish time is older than the
    given number of seconds; ``max_messages`` bounds the retained count.
    ``None`` disables the respective bound ("retain indefinitely", which
    §3.1 notes is undesirable but possible).
    """

    max_age: Optional[float] = None
    max_messages: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_age is not None and self.max_age <= 0:
            raise ValueError("max_age must be positive when set")
        if self.max_messages is not None and self.max_messages < 1:
            raise ValueError("max_messages must be >= 1 when set")

    @property
    def unbounded(self) -> bool:
        return self.max_age is None and self.max_messages is None


@dataclass(frozen=True)
class CompactionPolicy:
    """Keyed compaction: keep every message in the recent window, and
    only the latest version of each key before it (§3.1)."""

    recent_window: float

    def __post_init__(self) -> None:
        if self.recent_window < 0:
            raise ValueError("recent_window must be >= 0")


class PartitionLog:
    """Append-only message log for a single partition."""

    def __init__(
        self,
        topic: str,
        partition: int,
        retention: RetentionPolicy = RetentionPolicy(),
        compaction: Optional[CompactionPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.topic = topic
        self.partition = partition
        self.retention = retention
        self.compaction = compaction
        self._clock = clock or (lambda: 0.0)
        self._messages: List[Message] = []  # retained, offset order
        self._next_offset = 0
        self._gc_floor = 0  # offsets below this may be gone
        self._bytes_sized = 0  # bytes of every message below _sized_upto
        self._sized_upto = 0
        self.messages_gced = 0  # retention GC deletions

    # ------------------------------------------------------------------
    # appending

    def append(self, key: Optional[str], payload: Any) -> Message:
        """Append a message; returns it with its assigned offset."""
        message = Message(
            topic=self.topic,
            partition=self.partition,
            offset=self._next_offset,
            key=key,
            payload=payload,
            publish_time=self._clock(),
        )
        self._next_offset += 1
        self._messages.append(message)
        return message

    @property
    def bytes_written(self) -> int:
        """Bytes of every message ever appended, deleted ones included."""
        self._size_appended()
        return self._bytes_sized

    def _size_appended(self) -> None:
        """Add the sizes of the messages appended since the last call.

        Each message is sized once: here, while it is still retained,
        because GC and compaction call this before deleting anything.
        Messages and their payloads are immutable by contract, so this
        reads the size an append-time sizing would have.
        """
        if self._sized_upto < self._next_offset:
            self._bytes_sized += sum(
                message.size() for message in self.read_from(self._sized_upto)
            )
            self._sized_upto = self._next_offset

    # ------------------------------------------------------------------
    # reading

    @property
    def next_offset(self) -> int:
        """Offset the next append will get (== high watermark)."""
        return self._next_offset

    @property
    def gc_floor(self) -> int:
        """Lowest offset guaranteed not to have been deleted by
        retention GC.  (Compacted holes can exist above the floor.)"""
        return self._gc_floor

    def read_from(self, offset: int, limit: Optional[int] = None) -> List[Message]:
        """Retained messages with offset >= ``offset``, in order.

        Deliberately does **not** raise when ``offset`` is below the GC
        floor: the normal consumption path silently skips deleted
        messages, which is the undetectable loss of §3.1.  The replay
        seeks (:mod:`repro.pubsub.replay`) check :attr:`gc_floor` and
        raise instead.

        A positive ``limit`` copies at most ``limit`` messages, however
        long the retained tail: a pump or a replay batch costs its
        budget, not the backlog.
        """
        # binary search over retained messages (offset order, may have holes)
        messages = self._messages
        lo, hi = 0, len(messages)
        while lo < hi:
            mid = (lo + hi) // 2
            if messages[mid].offset < offset:
                lo = mid + 1
            else:
                hi = mid
        if limit is None:
            return messages[lo:]
        return messages[lo:lo + limit]

    def offset_for_time(self, t: float) -> int:
        """Smallest retained offset with publish_time >= ``t`` (or the
        high watermark if none) — the basis of seek-to-timestamp."""
        for message in self._messages:
            if message.publish_time >= t:
                return message.offset
        return self._next_offset

    # ------------------------------------------------------------------
    # retention GC & compaction

    def run_gc(self) -> int:
        """Apply the retention policy now; returns messages deleted.

        GC never consults consumer cursors — that is the point of §3.1.
        """
        if self.retention.unbounded or not self._messages:
            return 0
        now = self._clock()
        cutoff_idx = 0
        if self.retention.max_age is not None:
            horizon = now - self.retention.max_age
            while (
                cutoff_idx < len(self._messages)
                and self._messages[cutoff_idx].publish_time < horizon
            ):
                cutoff_idx += 1
        if self.retention.max_messages is not None:
            over = len(self._messages) - self.retention.max_messages
            cutoff_idx = max(cutoff_idx, over)
        if cutoff_idx <= 0:
            return 0
        self._size_appended()
        deleted = self._messages[:cutoff_idx]
        del self._messages[:cutoff_idx]
        self._gc_floor = max(self._gc_floor, deleted[-1].offset + 1)
        self.messages_gced += cutoff_idx
        return cutoff_idx

    def run_compaction(self) -> int:
        """Compact keyed messages older than the recent window.

        Keeps the newest message per key among the old section (plus all
        unkeyed messages, which cannot be compacted).  Returns messages
        deleted.  Holes do not move the GC floor: reads above the floor
        simply skip them — subscribers "do not discover that unseen
        events have been compacted" (§3.1).
        """
        if self.compaction is None or not self._messages:
            return 0
        horizon = self._clock() - self.compaction.recent_window
        old_end = 0
        while (
            old_end < len(self._messages)
            and self._messages[old_end].publish_time < horizon
        ):
            old_end += 1
        if old_end == 0:
            return 0
        latest_per_key: Dict[str, int] = {}
        for idx in range(old_end):
            message = self._messages[idx]
            if message.key is not None:
                latest_per_key[message.key] = idx
        keep_idx = set(latest_per_key.values())
        survivors: List[Message] = []
        deleted = 0
        for idx in range(old_end):
            message = self._messages[idx]
            if message.key is None or idx in keep_idx:
                survivors.append(message)
            else:
                deleted += 1
        if deleted:
            self._size_appended()
            self._messages[:old_end] = survivors
        return deleted
