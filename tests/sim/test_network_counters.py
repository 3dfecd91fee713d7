"""Network accounting: frame/message counters and count-once drops.

Regression focus: every dropped message increments exactly ONE
``net.dropped.<cause>`` counter exactly once — historically the
mid-flight partition path was suspected of double-counting, so the
invariant ``sent == delivered + sum(dropped.*)`` is pinned here.
"""

from repro.resilience.channel import _DataFrame, _GroupPayload
from repro.sim.kernel import Simulation
from repro.sim.network import Network, NetworkConfig, payload_message_count


def _dropped_total(net):
    return sum(
        int(value)
        for name, value in net.metrics.snapshot().items()
        if name.startswith("net.dropped.")
    )


class TestFrameCounters:
    def test_plain_payload_counts_one_message(self, sim):
        net = Network(sim)
        net.register("b", lambda src, p: None)
        net.send("a", "b", {"x": 1})
        assert net.frames_sent == 1
        assert net.payload_msgs == 1

    def test_group_frame_counts_all_messages(self, sim):
        net = Network(sim)
        net.register("b", lambda src, p: None)
        net.send("a", "b", _DataFrame(0, _GroupPayload([1, 2, 3, 4]), needs_ack=False))
        assert net.frames_sent == 1
        assert net.payload_msgs == 4

    def test_payload_message_count_nesting(self):
        # channel frame of group-commit publish commands → leaf records
        assert payload_message_count(_DataFrame(0, _GroupPayload([
            {"records": [("k1", 1), ("k2", 2)]},
            {"records": [("k3", 3)]},
            "unrelated",
        ]), needs_ack=True)) == 4
        assert payload_message_count({"records": [1, 2, 3]}) == 3
        assert payload_message_count("plain") == 1


class TestDropsCountedExactlyOnce:
    def test_send_time_partition_counts_once(self, sim):
        net = Network(sim)
        net.register("b", lambda src, p: None)
        net.partition("a", "b")
        assert net.send("a", "b", 1) is False
        assert net.dropped["partition"] == 1
        assert _dropped_total(net) == 1

    def test_mid_flight_partition_counts_once(self, sim):
        net = Network(sim, NetworkConfig(base_latency=1.0))
        net.register("b", lambda src, p: None)
        assert net.send("a", "b", 1)
        sim.call_after(0.5, lambda: net.partition("a", "b"))
        sim.run()
        assert net.dropped["partition"] == 1
        assert _dropped_total(net) == 1
        assert net.delivered == 0

    def test_mid_flight_down_counts_once(self, sim):
        net = Network(sim, NetworkConfig(base_latency=1.0))
        net.register("b", lambda src, p: None)
        assert net.send("a", "b", 1)
        sim.call_after(0.5, lambda: net.set_up("b", False))
        sim.run()
        assert net.dropped["down"] == 1
        assert _dropped_total(net) == 1

    def test_sent_equals_delivered_plus_dropped_under_loss(self):
        # the conservation law behind loss accounting: each send ends in
        # exactly one bucket, never two
        sim = Simulation(seed=99)
        net = Network(sim, NetworkConfig(loss_rate=0.3))
        net.register("b", lambda src, p: None)
        for i in range(500):
            net.send("a", "b", i)
        sim.run()
        sent = net.frames_sent
        delivered = net.delivered
        assert sent == 500
        assert delivered + _dropped_total(net) == 500
        assert net.dropped["loss"] > 0
