"""The batching policy and the one sender that applies it on the wire."""

import pytest

from repro.resilience.channel import ChannelConfig, ReliableChannel
from repro.sim.network import Network, NetworkConfig
from repro.transport import BatchConfig


def make_receiver(net, name):
    """Channel endpoint collecting per-message deliveries."""
    received = []
    ReliableChannel(net.sim, net, name, handler=lambda src, p: received.append(p))
    return received


def make_sender(sim, net, max_batch, max_linger):
    config = ChannelConfig(
        reliable=False, batch=BatchConfig(max_batch=max_batch, max_linger=max_linger)
    )
    return ReliableChannel(sim, net, "src", config=config)


class TestBatchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchConfig(max_batch=0)
        with pytest.raises(ValueError):
            BatchConfig(max_linger=-0.1)
        # zero linger is legal: "flush on the next zero-delay tick"
        assert BatchConfig(max_linger=0.0).max_linger == 0.0


class TestBatchingSender:
    """The batching sender is ``ReliableChannel`` with ``ChannelConfig.batch``
    — fire-and-forget here, so every case watches the flush policy alone
    (``tests/resilience/test_channel_batching.py`` covers acks and
    retransmits of the same frames)."""

    def test_size_flush_ships_full_frame(self, sim):
        net = Network(sim)
        received = make_receiver(net, "dst")
        sender = make_sender(sim, net, max_batch=3, max_linger=10.0)
        seqs = [sender.send("dst", i) for i in range(3)]
        assert seqs == [0, 0, 0]  # one shared frame seq
        # on the wire already: flushed by size, not linger
        assert net.metrics.counter("net.frames.sent").value == 1
        sim.run()
        assert received == [0, 1, 2]

    def test_linger_flush_ships_partial_frame(self, sim):
        net = Network(sim, NetworkConfig(base_latency=0.001))
        received = make_receiver(net, "dst")
        sender = make_sender(sim, net, max_batch=100, max_linger=0.5)
        sender.send("dst", "a")
        sender.send("dst", "b")
        sim.run_for(0.4)
        assert received == []  # still lingering
        assert net.metrics.counter("net.frames.sent").value == 0
        sim.run_for(0.2)
        assert received == ["a", "b"]

    def test_frame_seqs_advance_per_destination(self, sim):
        net = Network(sim)
        make_receiver(net, "d1")
        make_receiver(net, "d2")
        sender = make_sender(sim, net, max_batch=2, max_linger=1.0)
        assert sender.send("d1", 1) == 0
        assert sender.send("d1", 2) == 0  # size flush
        assert sender.send("d1", 3) == 1  # new frame
        assert sender.send("d2", 4) == 0  # independent stream

    def test_flush_all_ships_every_open_frame(self, sim):
        net = Network(sim)
        r1 = make_receiver(net, "d1")
        r2 = make_receiver(net, "d2")
        sender = make_sender(sim, net, max_batch=10, max_linger=10.0)
        sender.send("d1", 1)
        sender.send("d2", 2)
        sender.flush_all()
        sim.run_for(1.0)  # well inside the linger window
        assert r1 == [1] and r2 == [2]

    def test_metrics_count_frames_and_messages(self, sim):
        net = Network(sim)
        make_receiver(net, "dst")
        sender = make_sender(sim, net, max_batch=4, max_linger=1.0)
        for i in range(8):
            sender.send("dst", i)
        sim.run()
        assert net.metrics.counter("resilience.src.transmits").value == 2
        assert net.metrics.counter("resilience.src.sent").value == 8
        assert net.metrics.counter("resilience.dst.frames_received").value == 2
        assert net.metrics.counter("resilience.dst.received").value == 8

    def test_network_counts_frame_payloads(self, sim):
        net = Network(sim)
        make_receiver(net, "dst")
        sender = make_sender(sim, net, max_batch=5, max_linger=1.0)
        for i in range(5):
            sender.send("dst", i)
        sim.run()
        assert net.metrics.counter("net.frames.sent").value == 1
        assert net.metrics.counter("net.payload.msgs").value == 5

    def test_dropped_frame_loses_whole_group(self, sim):
        net = Network(sim)
        received = make_receiver(net, "dst")
        net.partition("src", "dst")
        sender = make_sender(sim, net, max_batch=2, max_linger=1.0)
        sender.send("dst", 1)
        sender.send("dst", 2)
        sim.run()
        assert received == []
        assert net.metrics.counter("net.dropped.partition").value == 1
