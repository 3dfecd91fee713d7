"""Channel batching: group frames, batch acks, batch retransmit.

The regression this file pins down: an ack for frame seq N clears
exactly frame N's pending entry — it never "creeps" past a lost
neighbouring frame, and a retransmitted frame redelivers every
coalesced message exactly once.
"""

import pytest

from repro.resilience.channel import ChannelConfig, ReliableChannel
from repro.resilience.retry import RetryPolicy
from repro.sim.network import Network, NetworkConfig
from repro.transport import BatchConfig

FAST_RETRY = RetryPolicy.unbounded(base_delay=0.05, max_delay=0.5)


def make_pair(sim, net, config):
    received = []
    ReliableChannel(
        sim, net, "rx",
        handler=lambda src, payload: received.append(payload),
        config=config,
    )
    tx = ReliableChannel(sim, net, "tx", config=config)
    return tx, received


def batch_config(max_batch=4, max_linger=0.001, **kwargs):
    return ChannelConfig(
        retry=FAST_RETRY,
        batch=BatchConfig(max_batch=max_batch, max_linger=max_linger),
        **kwargs,
    )


class TestGroupFrames:
    def test_batched_send_shares_frame_seq(self, sim):
        net = Network(sim)
        tx, received = make_pair(sim, net, batch_config(max_batch=4))
        seqs = [tx.send("rx", i) for i in range(10)]
        # 4 + 4 by size, final 2 by linger: three frames
        assert seqs == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
        sim.run_for(1.0)
        assert received == list(range(10))
        assert tx.pending_unacked() == []

    def test_one_transmit_and_one_ack_per_frame(self, sim):
        net = Network(sim)
        tx, received = make_pair(sim, net, batch_config(max_batch=8))
        for i in range(8):
            tx.send("rx", i)
        sim.run_for(1.0)
        assert received == list(range(8))
        # per-message accounting vs per-frame wire accounting
        assert tx.sent == 8
        assert tx.transmits == 1
        assert tx.acked == 1
        assert net.metrics.get("resilience.rx.frames_received") == 1
        assert net.metrics.get("resilience.rx.received") == 8

    def test_delivered_callbacks_fire_per_message(self, sim):
        net = Network(sim)
        tx, _ = make_pair(sim, net, batch_config(max_batch=3))
        delivered = []
        for i in range(3):
            tx.send("rx", i, on_delivered=lambda i=i: delivered.append(i))
        sim.run_for(1.0)
        assert delivered == [0, 1, 2]


class TestBatchAckRange:
    def test_ack_clears_exactly_the_framed_range(self, sim):
        # frame 0 lands and is acked; frame 1 is cut off by a partition.
        # Frame 0's ack must clear only frame 0 — no creep into frame 1.
        net = Network(sim, NetworkConfig(base_latency=0.005))
        tx, received = make_pair(sim, net, batch_config(max_batch=4))
        for i in range(4):
            tx.send("rx", i)  # frame 0 ships by size
        sim.run_for(0.1)
        assert received == [0, 1, 2, 3]
        assert tx.pending_unacked() == []
        net.partition("tx", "rx")
        for i in range(4, 8):
            tx.send("rx", i)  # frame 1: transmits die on the partition
        sim.run_for(0.5)
        assert received == [0, 1, 2, 3]  # nothing new got through
        assert tx.pending_unacked() == [("rx", 1)]  # exactly frame 1
        for i in range(8, 12):
            tx.send("rx", i)  # frame 2, also trapped
        sim.run_for(0.2)
        assert tx.pending_unacked() == [("rx", 1), ("rx", 2)]
        net.heal("tx", "rx")
        sim.run_for(2.0)
        assert sorted(received) == list(range(12))  # all, exactly once
        assert tx.pending_unacked() == []
        assert tx.retransmits > 0

    def test_lossy_link_redelivers_frames_exactly_once(self, sim):
        net = Network(sim, NetworkConfig(loss_rate=0.3))
        tx, received = make_pair(sim, net, batch_config(max_batch=5))
        for i in range(60):
            tx.send("rx", i)
        sim.run_for(30.0)
        assert sorted(received) == list(range(60))
        assert tx.pending_unacked() == []

    def test_ordered_batched_frames_preserve_send_order(self, sim):
        net = Network(sim, NetworkConfig(loss_rate=0.25, jitter=0.002))
        tx, received = make_pair(
            sim, net, batch_config(max_batch=5, ordered=True)
        )
        for i in range(60):
            tx.send("rx", i)
        sim.run_for(30.0)
        assert received == list(range(60))


class TestFireAndForgetFrames:
    def test_dropped_frame_loses_whole_group_silently(self, sim):
        net = Network(sim)
        config = ChannelConfig(
            reliable=False, batch=BatchConfig(max_batch=4, max_linger=0.001)
        )
        tx, received = make_pair(sim, net, config)
        net.partition("tx", "rx")
        for i in range(4):
            tx.send("rx", i)
        sim.run_for(1.0)
        assert received == []
        assert tx.sent == 4
        assert tx.transmits == 1
        assert net.dropped["partition"] == 1


class TestCrashRecovery:
    def test_crash_parks_open_frame_and_recover_flushes(self, sim):
        net = Network(sim)
        tx, received = make_pair(sim, net, batch_config(max_batch=10, max_linger=5.0))
        tx.send("rx", "a")
        tx.send("rx", "b")
        tx.crash()  # open frame closes into _pending, frozen
        sim.run_for(1.0)
        assert received == []
        assert tx.pending_unacked() == [("rx", 0)]
        tx.recover()
        sim.run_for(1.0)
        assert received == ["a", "b"]
        assert tx.pending_unacked() == []
