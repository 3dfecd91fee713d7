"""CDC group-commit: one publish group per transaction, no interleaving."""

from repro._types import Mutation
from repro.cdc.publisher import CdcPublisher
from repro.pubsub.broker import Broker
from repro.storage.kv import MVCCStore


class TestGroupCommitFraming:
    def test_one_batch_call_per_transaction_in_txn_order(self, sim):
        store = MVCCStore()
        calls = []
        CdcPublisher(
            sim, store.history, None, "cdc",
            group_commit=True,
            publish_batch_fn=lambda topic, records: calls.append((topic, records)),
        )
        store.commit({"a": Mutation.put(1), "b": Mutation.put(2),
                      "c": Mutation.put(3)})
        sim.run_for(1.0)
        assert len(calls) == 1
        topic, records = calls[0]
        assert topic == "cdc"
        assert [key for key, _ in records] == ["a", "b", "c"]
        assert [payload["txn_index"] for _, payload in records] == [0, 1, 2]

    def test_two_transactions_never_interleave(self, sim):
        store = MVCCStore()
        calls = []
        CdcPublisher(
            sim, store.history, None, "cdc",
            group_commit=True,
            publish_batch_fn=lambda topic, records: calls.append(records),
        )
        v1 = store.commit({"a": Mutation.put(1), "b": Mutation.put(2)})
        v2 = store.commit({"c": Mutation.put(3), "d": Mutation.put(4)})
        sim.run_for(1.0)
        assert len(calls) == 2
        # each group holds exactly one transaction's records
        assert {p["version"] for _, p in calls[0]} == {v1}
        assert {p["version"] for _, p in calls[1]} == {v2}

    def test_single_record_txn_flushes_immediately(self, sim):
        store = MVCCStore()
        calls = []
        CdcPublisher(
            sim, store.history, None, "cdc",
            group_commit=True, publish_latency=0.0,
            publish_batch_fn=lambda topic, records: calls.append(records),
        )
        store.put("solo", 42)
        assert len(calls) == 1 and len(calls[0]) == 1


class TestGroupCommitEndToEnd:
    def test_broker_log_keeps_txns_contiguous(self, sim):
        # one partition: a group-commit publish appends a whole txn as a
        # contiguous run — a per-record publisher could interleave txns
        store = MVCCStore()
        broker = Broker(sim)
        broker.create_topic("cdc", num_partitions=1)
        publisher = CdcPublisher(
            sim, store.history, broker, "cdc", group_commit=True,
        )
        versions = [
            store.commit({f"k{i}-{j}": Mutation.put(j) for j in range(4)})
            for i in range(5)
        ]
        sim.run_for(1.0)
        assert publisher.published == 20
        log_versions = [
            m.payload["version"]
            for m in broker.topic("cdc").partitions[0]._messages
        ]
        expected = [v for v in versions for _ in range(4)]
        assert log_versions == expected
