"""Direct drills: untraced ns/op of the public calls an optimisation is
most likely to target, on inputs shaped like the workloads' own.

cProfile inflates layers made of many tiny functions; these are the
undistorted nanoseconds to multiply by the exact per-delivered counts
the traced repetitions report.  Each drill times ``ROUNDS`` batches and
reports the median batch, per operation.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, Dict, Tuple

from repro._types import KeyRange, Mutation
from repro.core.api import FnWatchCallback
from repro.core.events import ChangeEvent
from repro.core.watch_system import WatchSystem
from repro.edge.session import ClientSession, SessionConfig, Update
from repro.edge.session_table import SessionTable
from repro.pubsub.broker import Broker
from repro.pubsub.consumer import Consumer
from repro.sim.kernel import Simulation
from repro.sim.wire import decode, encode, wire_size

ROUNDS = 5


def _noop() -> None:
    pass


def _median_ns(batch: Callable[[], Tuple[int, float]]) -> float:
    """``batch`` builds what it needs, times only the operations, and
    returns ``(operations, seconds)``."""
    samples = []
    for _ in range(ROUNDS):
        gc.collect()
        ops, seconds = batch()
        samples.append(seconds * 1e9 / ops)
    return statistics.median(samples)


def _timed(fn: Callable[[], None]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def post_fire() -> float:
    """Zero-delay lane: ``post(0.0)`` + dispatch, chained like a pump."""
    n = 50_000

    def batch():
        sim = Simulation(seed=0)
        left = [n]

        def hop() -> None:
            left[0] -= 1
            if left[0]:
                sim.post(0.0, hop)

        sim.post(0.0, hop)
        return n, _timed(sim.run)

    return _median_ns(batch)


def near_timer() -> float:
    """Heap lane: 1 ms timers (network latency, linger) set in bursts of
    64 and fired, so the heap stays as shallow as the workloads keep it."""
    n = 51_200

    def batch():
        sim = Simulation(seed=0)

        def go() -> None:
            for _ in range(n // 64):
                for i in range(64):
                    sim.post(0.001 + i * 1e-6, _noop)
                sim.run()

        return n, _timed(go)

    return _median_ns(batch)


def far_timer_cancel() -> float:
    """Wheel lane: a 30 s deadline parked, then cancelled by the ack
    (the ack-deadline / retransmit-timer pattern); the flush that
    routes and the sweep that drops the tombstones are included."""
    n = 19_200

    def batch():
        sim = Simulation(seed=0)

        def go() -> None:
            for _ in range(n // 64):
                handles = [sim.call_after(30.0, _noop) for _ in range(64)]
                sim.run(until=sim.now() + 0.001)
                for handle in handles:
                    handle.cancel()
            sim.run(until=sim.now() + 60.0)

        return n, _timed(go)

    return _median_ns(batch)


def _record(i: int) -> Dict[str, object]:
    """One CDC publish command, as ``RemotePublisher.publish`` ships it."""
    return {
        "topic": "cdc", "key": f"k{i % 128:03d}",
        "payload": {
            "op": "put", "value": i, "version": i + 1,
            "txn_index": i % 4, "txn_size": 4,
        },
    }


def size_record() -> float:
    records = [_record(i) for i in range(2_000)]

    def batch():
        def go() -> None:
            for record in records:
                wire_size(record)

        return len(records), _timed(go)

    return _median_ns(batch)


def size_frame16() -> float:
    """``wire_size`` of a 16-record group command, per record."""
    frames = [
        {"topic": "cdc", "records": [
            (r["key"], r["payload"]) for r in map(_record, range(i, i + 16))
        ]}
        for i in range(0, 2_000, 16)
    ]

    def batch():
        def go() -> None:
            for frame in frames:
                wire_size(frame)

        return len(frames) * 16, _timed(go)

    return _median_ns(batch)


def encode_decode() -> float:
    records = [_record(i) for i in range(1_000)]

    def batch():
        def go() -> None:
            for record in records:
                decode(encode(record))

        return len(records), _timed(go)

    return _median_ns(batch)


def publish_deliver_ack() -> float:
    """One group, one partition's worth of members: the broker round trip."""
    n = 5_000

    def batch():
        sim = Simulation(seed=0)
        broker = Broker(sim)
        broker.create_topic("t", num_partitions=4)
        group = broker.consumer_group("t", "g")
        for c in range(4):
            group.join(Consumer(sim, f"c{c}"))

        def go() -> None:
            for i in range(n):
                broker.publish("t", f"k{i % 64:02d}", i)
            sim.run(until=5.0)

        return n, _timed(go)

    return _median_ns(batch)


def append_fanout4() -> float:
    """``WatchSystem.append`` reaching 4 watchers of the key's range."""
    n = 10_000
    key_range = KeyRange("g000/", "g0000")

    def batch():
        sim = Simulation(seed=0)
        system = WatchSystem(sim)
        seen = [0]

        def on_event(event) -> None:
            seen[0] += 1

        for _ in range(4):
            system.watch_range(key_range, 0, FnWatchCallback(on_event=on_event))
        events = [
            ChangeEvent(f"g000/{v % 8:03d}", Mutation.put(v), v)
            for v in range(1, n + 1)
        ]

        def go() -> None:
            for event in events:
                system.append(event)
            sim.run()

        seconds = _timed(go)
        assert seen[0] == 4 * n
        return n, seconds

    return _median_ns(batch)


class _Sink:
    """Minimal session client: grants the credit straight back."""

    def on_delivery(self, session, item) -> None:
        session.grant()

    def on_session_closed(self, session, reason) -> None:
        pass


def offer_deliver() -> float:
    """Shared-drain ``offer`` → pump → ``on_delivery`` with 64 ready
    sessions in a 20k-slot table."""
    slots, ready, rounds = 20_000, 64, 100

    def batch():
        sim = Simulation(seed=0)
        table = SessionTable(sim, drain_interval=0.001)
        sink = _Sink()
        config = SessionConfig(initial_credits=8)
        key_range = KeyRange("g000/", "g0000")
        sessions = [
            ClientSession(sim, f"s{i}", sink, key_range, config=config, table=table)
            for i in range(slots)
        ]
        hot = sessions[:: slots // ready][:ready]

        def go() -> None:
            version = 0
            for _ in range(rounds):
                version += 1
                update = Update(f"g000/{version % 8:03d}", version, version)
                for session in hot:
                    session.offer(update)
                sim.run()

        seconds = _timed(go)
        assert sum(table.delivered) == ready * rounds
        return ready * rounds, seconds

    return _median_ns(batch)


DRILLS: Dict[str, Callable[[], float]] = {
    "drill.sim.kernel.post_fire_ns": post_fire,
    "drill.sim.kernel.near_timer_ns": near_timer,
    "drill.sim.kernel.far_timer_cancel_ns": far_timer_cancel,
    "drill.sim.wire.size_record_ns": size_record,
    "drill.sim.wire.size_frame16_ns": size_frame16,
    "drill.sim.wire.encode_decode_ns": encode_decode,
    "drill.pubsub.publish_deliver_ack_ns": publish_deliver_ack,
    "drill.core.append_fanout4_ns": append_fanout4,
    "drill.edge.offer_deliver_ns": offer_deliver,
}
