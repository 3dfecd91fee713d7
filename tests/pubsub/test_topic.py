"""Tests for topics and partitioning."""

import pytest

from repro.pubsub.topic import Partitioner, Topic


class TestPartitioner:
    def test_keyed_routing_stable(self):
        p = Partitioner(8)
        assert all(p.partition_for("k") == p.partition_for("k") for _ in range(5))

    def test_keyed_routing_deterministic_across_instances(self):
        assert Partitioner(8).partition_for("key") == Partitioner(8).partition_for("key")

    def test_round_robin_for_unkeyed(self):
        p = Partitioner(3)
        assert [p.partition_for(None) for _ in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            Partitioner(0)

    def test_spreads_keys(self):
        p = Partitioner(4)
        used = {p.partition_for(f"key-{i}") for i in range(100)}
        assert used == {0, 1, 2, 3}


class TestTopic:
    def test_append_routes_by_key(self):
        topic = Topic("t", num_partitions=4)
        m1 = topic.append("samekey", 1)
        m2 = topic.append("samekey", 2)
        assert m1.partition == m2.partition
        assert m2.offset == m1.offset + 1

    def test_aggregates(self):
        topic = Topic("t", num_partitions=2)
        for i in range(10):
            topic.append(f"k{i}", i)
        assert topic.total_messages_published == 10
        assert sum(len(log._messages) for log in topic.partitions) == 10
        assert topic.bytes_written > 0

    def test_gc_and_compaction_aggregate(self):
        from repro.pubsub.log import CompactionPolicy, RetentionPolicy

        clock_value = [0.0]
        topic = Topic(
            "t", num_partitions=2,
            retention=RetentionPolicy(max_messages=1),
            compaction=CompactionPolicy(recent_window=1.0),
            clock=lambda: clock_value[0],
        )
        for i in range(8):
            topic.append(f"k{i % 2}", i)
        assert topic.run_gc() > 0
        assert sum(log.messages_gced for log in topic.partitions) > 0
