"""Topics and partitioning.

A topic is a named set of partitions.  The partitioner maps a published
message to a partition: by key hash when a key is present (so a key's
messages are totally ordered within one partition — the property the
§3.2.1 "partition-serial" replication strategy relies on), else
round-robin.  Static partition counts are deliberate: the paper's
§3.1/§3.2.4 complaint is precisely that pubsub affinity is tied to
*static* partitions while application consumers shard *dynamically*.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, List, Optional

from repro.pubsub.log import CompactionPolicy, PartitionLog, RetentionPolicy
from repro.pubsub.message import Message


def _stable_hash(key: str) -> int:
    """Deterministic across processes (unlike built-in ``hash``)."""
    return int.from_bytes(hashlib.md5(key.encode("utf-8")).digest()[:8], "big")


class Partitioner:
    """Maps (key, counter) to a partition index."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions
        self._round_robin = 0
        #: key -> partition memo.  The md5 digest is deterministic, so
        #: the memo can never change an answer — it only amortizes the
        #: hash to one digest per *distinct* key instead of one per
        #: publish (real workloads publish hot keys repeatedly; the
        #: broker round-trip benchmark spends ~10% of its profile
        #: here without it).  Bounded by the live key population.
        self._memo: dict = {}

    def partition_for(self, key: Optional[str]) -> int:
        if key is not None:
            partition = self._memo.get(key)
            if partition is None:
                partition = _stable_hash(key) % self.num_partitions
                self._memo[key] = partition
            return partition
        partition = self._round_robin % self.num_partitions
        self._round_robin += 1
        return partition


class Topic:
    """A named set of partition logs sharing retention/compaction."""

    def __init__(
        self,
        name: str,
        num_partitions: int = 1,
        retention: RetentionPolicy = RetentionPolicy(),
        compaction: Optional[CompactionPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.partitioner = Partitioner(num_partitions)
        self.partitions: List[PartitionLog] = [
            PartitionLog(name, idx, retention=retention, compaction=compaction, clock=clock)
            for idx in range(num_partitions)
        ]

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def append(self, key: Optional[str], payload: Any) -> Message:
        """Route to a partition and append."""
        partition = self.partitioner.partition_for(key)
        return self.partitions[partition].append(key, payload)

    def run_gc(self) -> int:
        """Run retention GC on all partitions; total deleted."""
        return sum(log.run_gc() for log in self.partitions)

    def run_compaction(self) -> int:
        """Run compaction on all partitions; total deleted."""
        return sum(log.run_compaction() for log in self.partitions)

    @property
    def total_messages_published(self) -> int:
        return sum(log.next_offset for log in self.partitions)

    @property
    def bytes_written(self) -> int:
        """Durable bytes appended across partitions (E8 accounting)."""
        return sum(log.bytes_written for log in self.partitions)
