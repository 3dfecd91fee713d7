"""Tests for the pubsub replication appliers."""

import pytest

from repro._types import KeyRange, Mutation
from repro.cdc.publisher import CdcPublisher
from repro.pubsub.broker import Broker
from repro.pubsub.subscription import RoutingPolicy
from repro.replication.appliers import (
    ConcurrentApplier,
    PartitionSerialApplier,
    SerialTxnApplier,
    VersionCheckedApplier,
)
from repro.replication.checker import SnapshotChecker
from repro.replication.target import ReplicaStore
from repro.resilience.channel import ChannelConfig, ReliableChannel
from repro.resilience.retry import RetryPolicy
from repro.sim.kernel import Simulation
from repro.sim.network import Network, NetworkConfig
from repro.sim.wire import WireError
from repro.storage.kv import MVCCStore


def pipeline(sim, partitions, group_commit=False):
    store = MVCCStore(clock=sim.now)
    broker = Broker(sim)
    broker.create_topic("cdc", num_partitions=partitions)
    CdcPublisher(sim, store.history, broker, "cdc", group_commit=group_commit)
    return store, broker


class TestSerialTxnApplier:
    def test_requires_single_partition(self, sim):
        store, broker = pipeline(sim, partitions=4)
        with pytest.raises(ValueError):
            SerialTxnApplier(sim, broker, "cdc", ReplicaStore())

    def test_replays_transactions_atomically(self, sim):
        store, broker = pipeline(sim, partitions=1)
        target = ReplicaStore()
        checker = SnapshotChecker(store)
        checker.attach_target(target)
        applier = SerialTxnApplier(sim, broker, "cdc", target, service_time=0.001)
        store.commit({"a": Mutation.put(1), "b": Mutation.put(2)})
        store.commit({"a": Mutation.put(3)})
        store.commit({"b": Mutation.delete()})
        sim.run_for(5.0)
        assert applier.txns_applied == 3
        assert checker.violations == 0
        assert target.items() == {"a": 3}

    def test_throughput_bound_by_single_worker(self, sim):
        store, broker = pipeline(sim, partitions=1)
        applier = SerialTxnApplier(
            sim, broker, "cdc", ReplicaStore(), service_time=0.1
        )
        for i in range(20):
            store.put("k", i)
        sim.run_for(1.0)
        # 1 worker x 0.1s => ~10 records in 1s
        assert applier.records_seen <= 11


class TestConcurrentAppliers:
    def test_concurrent_applies_everything(self, sim):
        store, broker = pipeline(sim, partitions=4)
        target = ReplicaStore()
        ConcurrentApplier(sim, broker, "cdc", target, workers=4, service_time=0.001)
        for i in range(50):
            store.put(f"k{i % 10}", i)
        sim.run_for(10.0)
        assert len(target.items()) == 10

    def test_version_checked_converges_exactly(self, sim):
        store, broker = pipeline(sim, partitions=4)
        target = ReplicaStore()
        checker = SnapshotChecker(store)
        checker.attach_target(target)
        VersionCheckedApplier(sim, broker, "cdc", target, workers=4,
                              service_time=0.001)
        for i in range(60):
            if i % 7 == 3:
                store.delete(f"k{i % 10}")
            else:
                store.put(f"k{i % 10}", i)
        sim.run_for(10.0)
        assert checker.final_divergence(target) == []

    def test_worker_count_validated(self, sim):
        store, broker = pipeline(sim, partitions=2)
        with pytest.raises(ValueError):
            ConcurrentApplier(sim, broker, "cdc", ReplicaStore(), workers=0)


class TestPartitionSerialApplier:
    def test_per_key_order_guaranteed(self, sim):
        store, broker = pipeline(sim, partitions=4)
        target = ReplicaStore()
        checker = SnapshotChecker(store)
        checker.attach_target(target)
        PartitionSerialApplier(sim, broker, "cdc", target, service_time=0.001)
        for i in range(40):
            store.put(f"k{i % 5}", i)
        sim.run_for(10.0)
        assert checker.final_divergence(target) == []

    def test_one_worker_per_partition(self, sim):
        store, broker = pipeline(sim, partitions=3)
        applier = PartitionSerialApplier(sim, broker, "cdc", ReplicaStore())
        assert len(applier.consumers) == 3


#: class, constructor kwargs, topic partitions -> the wiring the collapsed
#: constructors must keep: group name, routing, worker count
APPLIERS = [
    (SerialTxnApplier, {}, 1,
     "serial-applier", RoutingPolicy.PARTITION, 1),
    (ConcurrentApplier, {"workers": 1}, 4,
     "concurrent-applier", RoutingPolicy.RANDOM, 1),
    (VersionCheckedApplier, {}, 4,
     "versioned-applier", RoutingPolicy.RANDOM, 4),
    (PartitionSerialApplier, {}, 4,
     "partition-serial-applier", RoutingPolicy.PARTITION, 4),
]


def _replicate(cls, kwargs, partitions, networked, delivery_batch):
    """Run one seeded commit stream through one applier configuration."""
    sim = Simulation(seed=77)
    store, broker = pipeline(sim, partitions, group_commit=True)
    if networked:
        net = Network(sim, NetworkConfig(loss_rate=0.2, jitter=0.002))
        kwargs = dict(
            kwargs, network=net,
            resilience=ChannelConfig(
                retry=RetryPolicy.unbounded(base_delay=0.05, max_delay=0.5),
                ordered=True,
            ),
        )
    target = ReplicaStore()
    applier = cls(
        sim, broker, "cdc", target, service_time=0.0005,
        delivery_batch=delivery_batch, **kwargs,
    )
    rng = sim.rng
    records = 0
    for n in range(60):
        writes = {
            f"k{rng.randrange(12)}": (
                Mutation.delete() if rng.random() < 0.15 else Mutation.put(n)
            )
            for _ in range(rng.randrange(1, 6))
        }
        records += len(writes)
        # bursts of six commits, so deliveries really do group
        sim.call_at(n // 6 * 0.02, lambda writes=writes: store.commit(writes))
    sim.run(until=30.0)
    return store, target, applier, records


class TestGroupApplyDifferential:
    @pytest.mark.parametrize(
        "cls, kwargs, partitions, group_name, routing, workers", APPLIERS,
        ids=[row[0].__name__ for row in APPLIERS],
    )
    @pytest.mark.parametrize("networked", [False, True], ids=["local", "net"])
    def test_batched_equals_unbatched_equals_source(
        self, cls, kwargs, partitions, group_name, routing, workers, networked
    ):
        states = []
        for delivery_batch in (1, 8):
            store, target, applier, records = _replicate(
                cls, kwargs, partitions, networked, delivery_batch
            )
            assert target.items() == dict(store.scan(KeyRange.all()))
            assert applier.records_seen == records
            assert applier._tx is None or not applier._tx.pending_unacked()
            assert applier.cursor_faults == 0
            assert applier.group.subscription.name == group_name
            assert applier.group.subscription.config.routing is routing
            assert len(applier.consumers) == workers
            states.append(target.items())
        assert states[0] == states[1]

    def test_partition_routed_appliers_refuse_a_worker_count(self, sim):
        _, broker = pipeline(sim, partitions=4)
        with pytest.raises(ValueError, match="one worker per partition"):
            PartitionSerialApplier(sim, broker, "cdc", ReplicaStore(), workers=2)


def _poisoned_group(sim, cls, networked, **kwargs):
    """One 6-key commit delivered as ONE group, k1's cursor forged."""
    store, broker = pipeline(sim, partitions=1, group_commit=True)
    if networked:
        kwargs["network"] = Network(sim)
    target = ReplicaStore()
    target._versions["k1"] = 10_000  # ahead of the apply watermark
    sizes = []
    target.observe(lambda t: sizes.append(len(t._state)))
    applier = cls(sim, broker, "cdc", target, delivery_batch=8, **kwargs)
    store.commit({f"k{i}": Mutation.put(i) for i in range(6)})
    sim.run(until=5.0)
    return target, applier, sizes


class TestPoisonedKeyInAGroup:
    """A forged cursor refuses its own op and nothing else: the rest of
    the group applies, exactly once, on both sides of the wire."""

    @pytest.mark.parametrize("networked", [False, True], ids=["local", "net"])
    @pytest.mark.parametrize(
        "cls, kwargs",
        [(PartitionSerialApplier, {}), (ConcurrentApplier, {"workers": 1})],
        ids=["versioned", "naive"],
    )
    def test_rest_of_the_group_applies_exactly_once(
        self, sim, cls, kwargs, networked
    ):
        target, applier, sizes = _poisoned_group(sim, cls, networked, **kwargs)
        assert target.items() == {f"k{i}": i for i in (0, 2, 3, 4, 5)}
        assert applier.cursor_faults == 1
        assert applier.records_seen == 6
        assert applier._tx is None or not applier._tx.pending_unacked()
        # nothing re-ran: no stale skips, no second write of k0 — an
        # observer (SnapshotChecker) sees the state only ever grow
        assert target.applies == 5
        assert target.skipped_stale == 0
        assert sizes == [1, 2, 3, 4, 5]


class TestHostileReplicaEndpoint:
    """The replica endpoint applies only allow-listed, well-formed ops;
    anything else fails loudly, naming endpoint, sender and the op."""

    @pytest.mark.parametrize(
        "op",
        [
            {"method": "repair", "args": ("k", Mutation.put(1), 1)},
            {"method": "__init__", "args": ()},
            {"method": "apply_versioned", "args": ("k",)},
            {"method": "apply_many", "args": ()},
            {"method": "apply_many", "args": (
                [("apply_versioned", ("ok", Mutation.put(1), 1)),
                 ("observe", (print,))],
            )},
            {"args": ("k", Mutation.put(1), 1)},
            "apply_versioned",
            None,
        ],
        ids=["unlisted", "dunder", "arity", "empty-group", "unlisted-in-group",
             "no-method", "str", "none"],
    )
    def test_malformed_op_raises_wire_error_and_applies_nothing(self, sim, op):
        _, broker = pipeline(sim, partitions=2)
        net = Network(sim)
        target = ReplicaStore()
        seen = []
        target.observe(seen.append)
        VersionCheckedApplier(sim, broker, "cdc", target, network=net)
        intruder = ReliableChannel(sim, net, "intruder")
        intruder.send("versioned-applier-replica", op)
        with pytest.raises(WireError) as excinfo:
            sim.run(until=1.0)
        message = str(excinfo.value)
        assert "versioned-applier-replica" in message
        assert "intruder" in message
        assert repr(op) in message
        assert target.applies == 0 and seen == [] and len(target._state) == 0
