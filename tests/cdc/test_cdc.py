"""Tests for CDC capture and publishing."""

from repro._types import Mutation
from repro.cdc.capture import CdcCapture, ChangeRecord
from repro.cdc.publisher import CdcPublisher
from repro.pubsub.broker import Broker
from repro.storage.kv import MVCCStore


class TestCapture:
    def test_one_record_per_write(self):
        store = MVCCStore()
        records = []
        CdcCapture(store.history, records.append)
        v = store.commit({"a": Mutation.put(1), "b": Mutation.put(2)})
        assert len(records) == 2
        assert all(r.txn_version == v for r in records)
        assert records[0].txn_index == 0 and records[0].txn_size == 2
        assert records[1].txn_index == 1

    def test_delete_records(self):
        store = MVCCStore()
        records = []
        CdcCapture(store.history, records.append)
        store.put("a", 1)
        store.delete("a")
        assert records[-1].is_delete
        assert records[-1].value is None

    def test_counters(self):
        store = MVCCStore()
        capture = CdcCapture(store.history, lambda r: None)
        store.commit({"a": Mutation.put(1), "b": Mutation.put(2)})
        assert capture.commits_captured == 1
        assert capture.records_emitted == 2


class TestPublisher:
    def test_publishes_with_row_key(self, sim):
        store = MVCCStore()
        broker = Broker(sim)
        broker.create_topic("cdc", num_partitions=4)
        publisher = CdcPublisher(sim, store.history, broker, "cdc")
        v = store.put("row-1", {"x": 1})
        sim.run_for(1.0)
        assert publisher.published == 1
        messages = [
            m for log in broker.topic("cdc").partitions
            for m in log._messages
        ]
        assert len(messages) == 1
        assert messages[0].key == "row-1"
        assert messages[0].payload["version"] == v
        assert messages[0].payload["op"] == "put"

    def test_per_key_partition_order_preserved(self, sim):
        store = MVCCStore()
        broker = Broker(sim)
        broker.create_topic("cdc", num_partitions=4)
        CdcPublisher(sim, store.history, broker, "cdc")
        for i in range(10):
            store.put("same-key", i)
        sim.run_for(1.0)
        for log in broker.topic("cdc").partitions:
            values = [m.payload["value"] for m in log._messages]
            if values:
                assert values == list(range(10))

