"""Allocation-regression guard for the pooled dispatch hot paths.

The zero-allocation claim (slab/freelist event reuse in the kernel) is
load-bearing for the raw-speed pass: if a refactor quietly reintroduces
a per-message allocation, timing benchmarks drift slowly but
``sys.getallocatedblocks`` deltas jump immediately.  These are correctness tests, not timing loops — they run
with GC paused and assert *net retained block counts* around a
steady-state burst, so transient allocations (slice temporaries, frame
objects reused from CPython's own freelists) don't count.

Path-by-path contract:

- ``Simulation.post`` → pooled entry, no handle → **0 allocations** per
  message at steady state.
- ``Simulation.call_at`` → pooled entry + one :class:`EventHandle` per
  call (the handle is the API) → a small fixed number of blocks per
  event, all dead by the time the burst drains.

The next three tests pin *work counters* instead of blocks: exact
per-frame counts on the reliable networked hop (wire-size visits, no
call into the metrics module, two function objects), and the kernel
calls a reliable burst and a broker publish→deliver→ack burst make,
which repeat bit-for-bit and so can be gated at zero tolerance where
wall-clock cannot.  The last two pin what one broker delivery holds:
objects the cyclic collector tracks, and function objects made, the
latter also for consumers whose service takes time.  The last one
bounds the blocks a partition-log append keeps.
"""

import dis
import gc
import os
import sys
import tracemalloc
from collections import Counter

import repro
from repro.pubsub.broker import Broker
from repro.pubsub.consumer import Consumer
from repro.pubsub.log import PartitionLog
from repro.pubsub.subscription import SubscriptionConfig
from repro.resilience.channel import ReliableChannel
from repro.sim import wire
from repro.sim.kernel import Simulation
from repro.sim import metrics
from repro.sim.network import Network, NetworkConfig


def _noop() -> None:
    pass


def _drive_post(sim: Simulation, n: int) -> None:
    post = sim.post
    for _ in range(n):
        post(0.0, _noop)
    sim.run()


def _net_blocks(fn, *args) -> int:
    """Net retained allocated blocks across ``fn`` with GC paused."""
    gc.disable()
    try:
        gc.collect()
        fn(*args)  # warm-up inside the paused-GC window too
        before = sys.getallocatedblocks()
        fn(*args)
        after = sys.getallocatedblocks()
    finally:
        gc.enable()
    return after - before


def test_post_dispatch_steady_state_allocates_nothing():
    sim = Simulation(seed=1)
    # warm every slab: kernel entry pool, fast-lane deque blocks,
    # CPython frame/float freelists
    _drive_post(sim, 5_000)
    delta = _net_blocks(_drive_post, sim, 5_000)
    # zero per-message allocations: the only tolerated drift is a few
    # blocks of interpreter noise (e.g. a resized internal table), far
    # below one block per event
    assert delta <= 16, f"post dispatch retained {delta} blocks for 5k events"


def test_call_at_dispatch_allocates_only_the_handle():
    sim = Simulation(seed=1)

    def drive(n: int) -> None:
        call_at = sim.call_at
        for _ in range(n):
            call_at(sim.now(), _noop)
        sim.run()

    drive(5_000)
    delta = _net_blocks(drive, 5_000)
    # handles are allocated per call (they are the cancel API) but die
    # young and are never retained past the drain
    assert delta <= 16, f"call_at retained {delta} blocks for 5k events"


def test_tracemalloc_confirms_no_per_message_retention():
    # second, independent instrument: tracemalloc's traced-memory delta
    # between two identical steady-state rounds stays near zero.  (The
    # first in-window round is not the measurement: pooled entries hold
    # the latest seq integers, so round N's ints replace round N-1's —
    # net blocks are stable but "allocated since start() and still
    # alive" is one int per slab slot until a full round has cycled.)
    sim = Simulation(seed=1)
    _drive_post(sim, 5_000)
    gc.collect()
    tracemalloc.start()
    try:
        _drive_post(sim, 5_000)
        gc.collect()
        first, _peak = tracemalloc.get_traced_memory()
        _drive_post(sim, 5_000)
        gc.collect()
        second, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    delta = second - first
    assert delta < 16 * 1024, f"retained {delta} bytes across 5k events"


def _metrics_calls(fn, *args) -> int:
    """Python function calls into ``repro.sim.metrics`` during ``fn``."""
    path = metrics.__file__
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == path:
            calls[0] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls[0]


def test_reliable_round_trip_work_counters_are_exact(monkeypatch):
    # one CDC publish command as RemotePublisher ships it (the shape
    # repl-net-unbatched sends 20k of)
    record = {
        "topic": "cdc", "key": "k042",
        "payload": {
            "op": "put", "value": 7, "version": 8,
            "txn_index": 1, "txn_size": 4,
        },
    }
    sim = Simulation(seed=1)
    net = Network(sim, NetworkConfig(base_latency=0.001))
    delivered = []
    ReliableChannel(sim, net, "rx", handler=lambda src, p: delivered.append(p))
    tx = ReliableChannel(sim, net, "tx")

    def round_trips(n: int) -> None:
        for _ in range(n):
            tx.send("rx", record)
            sim.run()  # data frame, delivery, ack, alarm cancel

    round_trips(3)  # warm-up: first transmits, first deliveries
    frames = 50
    # counts are plain ints on the channel and the network: no call into
    # the metrics module per frame, only when a registry is read
    assert _metrics_calls(round_trips, frames) == 0
    # one function object per frame on the wire, data and ack alike:
    # Network.send's delivery lambda.  Pinned at today's value on
    # purpose — fewer GC-tracked objects per message moves the ledger's
    # GC phase (docs/performance.md "Known limit: GC phase"), so the
    # change that removes it must move this pin too
    assert _functions_made(round_trips, frames) == 2 * frames
    assert len(tx.pending_unacked()) == 0 and len(delivered) == 3 + 2 * frames

    visits = [0]
    size = wire._size

    def counting_size(obj):
        visits[0] += 1
        return size(obj)

    def no_encode(obj):
        raise AssertionError("wire.encode on the send path")

    monkeypatch.setattr(wire, "_size", counting_size)
    monkeypatch.setattr(wire, "encode", no_encode)
    round_trips(frames)
    assert len(tx.pending_unacked()) == 0 and len(delivered) == 3 + 3 * frames
    # the record frame is walked once at first transmit — frame, seq,
    # command dict (3 keys, 2 strings, inner dict of 5 keys + 5 values),
    # needs_ack = 20 visits — then Network.send reads the stored size
    # (1 visit), and the ack is frame + seq (2 visits)
    assert visits[0] == 23 * frames


def _count_schedule_calls(sim: Simulation) -> Counter:
    """Count every scheduling call made on ``sim`` from now on."""
    calls = Counter()

    def counting(name):
        real = getattr(sim, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("call_at", "call_after", "call_at_seq", "post"):
        setattr(sim, name, counting(name))
    return calls


def test_reliable_burst_schedules_no_timer_per_frame():
    # the repl-net shape in miniature: bursts of frames in flight on one
    # reliable hop, every burst acked before the next
    sim = Simulation(seed=1)
    net = Network(sim, NetworkConfig(base_latency=0.001))
    ReliableChannel(sim, net, "rx", handler=lambda src, p: None)
    tx = ReliableChannel(sim, net, "tx")
    frames = 16

    def bursts(n: int) -> None:
        for _ in range(n):
            for i in range(frames):
                tx.send("rx", i)
            sim.run()

    bursts(3)
    undercuts = tx.undercut_alarms
    calls = _count_schedule_calls(sim)
    rounds = 50
    bursts(rounds)
    undercuts = tx.undercut_alarms - undercuts
    assert len(tx.pending_unacked()) == 0 and tx.stale_fires == 0
    # no per-frame timer: no call_at/call_after, so no EventHandle, per
    # frame; the retransmit clock arms one alarm per busy period (each
    # burst is one), plus one whenever a frame's jittered deadline
    # undercuts the earliest alarm — the prefix minima of the jitter
    # draws, far fewer than the frames
    assert calls["call_after"] == calls["call_at"] == 0
    assert calls["call_at_seq"] == rounds + undercuts
    assert 0 < undercuts < rounds * frames // 4
    # what is left per frame is posted: the data frame's and its ack's
    # network delivery
    assert calls["post"] == rounds * frames * 2


def test_broker_burst_schedules_no_handle_per_delivery():
    # the broker-fanout shape in miniature: bursts of publishes fanned
    # out to several groups, each burst drained before the next
    sim = Simulation(seed=1)
    broker = Broker(sim)
    broker.create_topic("t", num_partitions=4)
    groups = [broker.consumer_group("t", f"g{g}") for g in range(3)]
    for g, group in enumerate(groups):
        for c in range(2):
            group.join(Consumer(sim, f"g{g}c{c}"))

    def bursts(n: int) -> None:
        for _ in range(n):
            for i in range(16):
                broker.publish("t", f"k{i}", i)
            sim.run(until=sim.now() + 0.01)

    bursts(3)
    calls = _count_schedule_calls(sim)
    rounds = 50
    bursts(rounds)
    subscriptions = [group.subscription for group in groups]
    assert sum(sub.acked for sub in subscriptions) == (rounds + 3) * 16 * len(groups)
    assert all(sub.inflight_count() == 0 for sub in subscriptions)
    # every pubsub event is posted: no call_at/call_after, so no handle,
    # per delivery; the one handle-returning call left is the lease
    # watchdog, armed once per subscription busy period (each burst is
    # one: its leases all end before the next publish)
    assert calls["call_after"] == calls["call_at"] == 0
    assert calls["call_at_seq"] == rounds * len(groups)
    # per burst: 16 publish wakes, 48 deliveries, 12 pumps after the
    # wakes and 12 after the acks (3 groups x 4 partitions), and one
    # processing-loop start for each of the 6 consumers
    assert calls["post"] == rounds * (16 + 48 + 12 + 12 + 6)


def test_queued_broker_delivery_holds_five_tracked_objects():
    # one consumer busy on its first delivery, the other 255 queued
    # behind it: every queued delivery holds its Message, its lease
    # (_Inflight), its receipt and its queue tuple — no closure, cell
    # or closure tuple (the closure dispatch held 10)
    deliveries = 4 * SubscriptionConfig().max_inflight_per_partition
    sim = Simulation(seed=1)
    # warm the kernel's entry pool (before the broker, whose sweeps
    # would keep an unbounded run going forever)
    _drive_post(sim, 2 * deliveries)
    broker = Broker(sim)
    broker.create_topic("t", num_partitions=4)
    consumer = Consumer(sim, "c", service_time=1_000.0)
    broker.consumer_group("t", "g").join(consumer)
    sim.run(until=0.01)
    gc.collect()
    before = len(gc.get_objects())
    for i in range(deliveries):
        broker.publish("t", None, i)  # round-robin: 64 per partition
    sim.run(until=0.02)
    gc.collect()
    tracked = len(gc.get_objects()) - before
    assert len(consumer._queue) == deliveries - 1
    assert tracked / deliveries <= 5.0, (
        f"{tracked / deliveries:.2f} tracked objects per queued delivery"
    )


def _functions_made(fn, *args) -> int:
    """MAKE_FUNCTION opcodes run in ``repro`` code during ``fn``: one per
    ``def`` or ``lambda`` evaluated, whether or not it outlives the call."""
    src = os.path.dirname(repro.__file__)
    make_function = dis.opmap["MAKE_FUNCTION"]
    made = [0]

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(src):
            return None
        frame.f_trace_opcodes = True
        if event == "opcode" and frame.f_code.co_code[frame.f_lasti] == make_function:
            made[0] += 1
        return trace

    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return made[0]


def test_broker_burst_makes_no_function_objects():
    # the burst of test_broker_burst_schedules_no_handle_per_delivery:
    # wakes, pumps and receipts are bound once, so a steady-state
    # publish->deliver->ack burst evaluates no def and no lambda
    sim = Simulation(seed=1)
    broker = Broker(sim)
    broker.create_topic("t", num_partitions=4)
    groups = [broker.consumer_group("t", f"g{g}") for g in range(3)]
    for g, group in enumerate(groups):
        for c in range(2):
            group.join(Consumer(sim, f"g{g}c{c}"))

    def bursts(n: int) -> None:
        for _ in range(n):
            for i in range(16):
                broker.publish("t", f"k{i}", i)
            sim.run(until=sim.now() + 0.01)

    bursts(3)
    rounds = 5
    assert _functions_made(bursts, rounds) == 0
    subscriptions = [group.subscription for group in groups]
    assert sum(sub.acked for sub in subscriptions) == (rounds + 3) * 16 * len(groups)


def test_broker_burst_to_busy_consumers_makes_no_function_objects():
    # the same burst to consumers that take 0.1 ms a message: each
    # service parks the serial loop on a posted finish, and the finisher
    # is bound once per consumer epoch, not built per item
    sim = Simulation(seed=1)
    broker = Broker(sim)
    broker.create_topic("t", num_partitions=4)
    groups = [broker.consumer_group("t", f"g{g}") for g in range(3)]
    consumers = []
    for g, group in enumerate(groups):
        for c in range(2):
            consumers.append(
                group.join(Consumer(sim, f"g{g}c{c}", service_time=0.0001))
            )

    def bursts(n: int) -> None:
        for _ in range(n):
            for i in range(16):
                broker.publish("t", f"k{i}", i)
            sim.run(until=sim.now() + 0.01)

    bursts(3)
    rounds = 5
    assert _functions_made(bursts, rounds) == 0
    subscriptions = [group.subscription for group in groups]
    assert sum(sub.acked for sub in subscriptions) == (rounds + 3) * 16 * len(groups)
    assert sum(c.processed for c in consumers) == (rounds + 3) * 16 * len(groups)


def test_partition_log_append_keeps_two_blocks():
    # an append keeps its Message (slotted: no instance __dict__) and
    # its offset int, nothing else: the byte count is worked out when
    # read, so no size is computed or stored on the append path
    log = PartitionLog("t", 0)
    payload = {"op": "put", "value": 7}

    def appends(n: int) -> None:
        append = log.append
        for _ in range(n):
            append("k042", payload)

    n = 5_000
    appends(n)  # past the small-int cache, list storage warm
    delta = _net_blocks(appends, n)
    assert delta <= 2 * n + 16, f"{delta / n:.2f} blocks kept per append"
