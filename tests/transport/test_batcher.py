"""Tests for the payload batching layer: flush policy and unbatching."""

import pytest

from repro.sim.metrics import MetricsRegistry
from repro.sim.network import Network, NetworkConfig, payload_message_count
from repro.sim.wire import encode
from repro.transport import (
    BatchConfig,
    BatchingSender,
    Frame,
    Unbatcher,
    frame_message_count,
)


def make_receiver(net, name):
    """Endpoint collecting unbatched (src, payload) deliveries."""
    received = []
    net.register(name, Unbatcher(lambda src, p: received.append(p)))
    return received


class TestBatchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchConfig(max_batch=0)
        with pytest.raises(ValueError):
            BatchConfig(max_linger=-0.1)
        # zero linger is legal: "flush on the next zero-delay tick"
        assert BatchConfig(max_linger=0.0).max_linger == 0.0


class TestBatchingSender:
    def test_size_flush_ships_full_frame(self, sim):
        net = Network(sim)
        received = make_receiver(net, "dst")
        sender = BatchingSender(sim, net, "src", BatchConfig(max_batch=3, max_linger=10.0))
        seqs = [sender.send("dst", i) for i in range(3)]
        assert seqs == [0, 0, 0]  # one shared frame seq
        assert sender.pending("dst") == 0  # flushed by size, not linger
        sim.run()
        assert received == [0, 1, 2]

    def test_linger_flush_ships_partial_frame(self, sim):
        net = Network(sim, NetworkConfig(base_latency=0.001))
        received = make_receiver(net, "dst")
        sender = BatchingSender(
            sim, net, "src", BatchConfig(max_batch=100, max_linger=0.5)
        )
        sender.send("dst", "a")
        sender.send("dst", "b")
        assert sender.pending("dst") == 2
        sim.run_for(0.4)
        assert received == []  # still lingering
        sim.run_for(0.2)
        assert received == ["a", "b"]

    def test_frame_seqs_advance_per_destination(self, sim):
        net = Network(sim)
        make_receiver(net, "d1")
        make_receiver(net, "d2")
        sender = BatchingSender(sim, net, "src", BatchConfig(max_batch=2, max_linger=1.0))
        assert sender.send("d1", 1) == 0
        assert sender.send("d1", 2) == 0  # size flush
        assert sender.send("d1", 3) == 1  # new frame
        assert sender.send("d2", 4) == 0  # independent stream

    def test_flush_all_ships_every_open_frame(self, sim):
        net = Network(sim)
        r1 = make_receiver(net, "d1")
        r2 = make_receiver(net, "d2")
        sender = BatchingSender(sim, net, "src", BatchConfig(max_batch=10, max_linger=10.0))
        sender.send("d1", 1)
        sender.send("d2", 2)
        sender.flush_all()
        sim.run()
        assert r1 == [1] and r2 == [2]

    def test_metrics_count_frames_and_messages(self, sim):
        net = Network(sim)
        make_receiver(net, "dst")
        metrics = MetricsRegistry()
        sender = BatchingSender(
            sim, net, "src", BatchConfig(max_batch=4, max_linger=1.0),
            metrics=metrics, name="b",
        )
        for i in range(8):
            sender.send("dst", i)
        sim.run()
        assert metrics.counter("b.frames").value == 2
        assert metrics.counter("b.framed_msgs").value == 8

    def test_network_counts_frame_payloads(self, sim):
        net = Network(sim)
        make_receiver(net, "dst")
        sender = BatchingSender(sim, net, "src", BatchConfig(max_batch=5, max_linger=1.0))
        for i in range(5):
            sender.send("dst", i)
        sim.run()
        assert net.metrics.counter("net.frames.sent").value == 1
        assert net.metrics.counter("net.payload.msgs").value == 5

    def test_dropped_frame_loses_whole_group(self, sim):
        net = Network(sim)
        received = make_receiver(net, "dst")
        net.partition("src", "dst")
        sender = BatchingSender(sim, net, "src", BatchConfig(max_batch=2, max_linger=1.0))
        sender.send("dst", 1)
        sender.send("dst", 2)
        sim.run()
        assert received == []
        assert net.metrics.counter("net.dropped.partition").value == 1


    def test_recycled_frame_shell_is_sized_afresh(self, sim):
        # the stored size describes one flush; a shell that comes back
        # from the freelist must not carry it into its next life
        from repro.transport import batcher

        batcher._FRAME_POOL.clear()
        net = Network(sim)
        received = make_receiver(net, "dst")
        sender = BatchingSender(sim, net, "src", BatchConfig(max_batch=8, max_linger=0.01))
        bytes_sent = net.metrics.counter("net.bytes.sent")
        small, large = ["a"], ["a much longer payload", {"k": "v" * 40}, 7]
        shells, expected = [], 0
        for group in (small, large):
            for payload in group:
                sender.send("dst", payload)
            frame = sender._open["dst"]
            shells.append(frame)
            expected += len(encode(Frame(seq=frame.seq, payloads=list(group))))
            sim.run()  # linger flush, delivery, release to the freelist
            assert bytes_sent.value == expected
        assert shells[0] is shells[1]  # the second group rode the recycled shell
        assert shells[0].cached_size == 0 and shells[0].payloads == []
        assert received == small + large


class TestUnbatcher:
    def test_non_frame_payloads_pass_through(self, sim):
        net = Network(sim)
        received = make_receiver(net, "dst")
        net.send("src", "dst", {"plain": 1})
        sim.run()
        assert received == [{"plain": 1}]

    def test_frame_message_count(self):
        assert frame_message_count(Frame(seq=0, payloads=[1, 2, 3])) == 3
        assert frame_message_count("plain") == 1
        # nested grouping: a frame of group-commit publish commands
        # counts leaf records
        frame = Frame(seq=0, payloads=[{"records": [1, 2]}, "x"])
        assert payload_message_count(frame) == 3
