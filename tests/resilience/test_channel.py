"""Tests for reliable delivery over the lossy network."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.resilience.breaker import CircuitBreakerConfig
from repro.resilience.channel import ChannelConfig, ReliableChannel, _DataFrame
from repro.resilience.retry import RetryPolicy
from repro.sim.network import Network, NetworkConfig
from repro.sim.wire import WireError
from tests.conftest import make_sim


FAST_RETRY = RetryPolicy.unbounded(base_delay=0.05, max_delay=0.5)


def make_pair(sim, net, config=None, rx_name="rx", tx_name="tx"):
    """A sender channel and a receiving channel collecting payloads."""
    received = []
    rx = ReliableChannel(
        sim, net, rx_name,
        handler=lambda src, payload: received.append(payload),
        config=config,
    )
    tx = ReliableChannel(sim, net, tx_name, config=config)
    return tx, rx, received


class TestReliableDelivery:
    def test_lossless_link_delivers_once(self, sim):
        net = Network(sim)
        tx, rx, received = make_pair(sim, net)
        for i in range(5):
            tx.send("rx", i)
        sim.run()
        assert received == [0, 1, 2, 3, 4]
        assert len(tx.pending_unacked()) == 0
        assert tx.retransmits == 0

    def test_lossy_link_delivers_everything_exactly_once(self, sim):
        net = Network(sim, NetworkConfig(loss_rate=0.3))
        config = ChannelConfig(retry=FAST_RETRY)
        tx, rx, received = make_pair(sim, net, config)
        for i in range(50):
            tx.send("rx", i)
        sim.run()
        assert sorted(received) == list(range(50))  # all of them, once each
        assert len(tx.pending_unacked()) == 0
        # at 30% loss, retransmission must have actually happened
        assert tx.retransmits > 0

    def test_duplicates_are_suppressed_and_reacked(self, sim):
        # a lost ack forces a retransmit of an already-delivered frame;
        # the receiver must drop the duplicate but ack it again
        net = Network(sim, NetworkConfig(loss_rate=0.4))
        config = ChannelConfig(retry=FAST_RETRY)
        tx, rx, received = make_pair(sim, net, config)
        for i in range(80):
            tx.send("rx", i)
        sim.run()
        assert sorted(received) == list(range(80))
        assert rx.duplicates_dropped > 0

    def test_delivery_callbacks_fire(self, sim):
        net = Network(sim)
        tx, rx, _ = make_pair(sim, net)
        delivered = []
        tx.send("rx", "x", on_delivered=lambda: delivered.append(True))
        sim.run()
        assert delivered == [True]
        assert tx.acked == 1

    def test_bounded_policy_gives_up_on_dead_destination(self, sim):
        net = Network(sim)
        gaveup = []
        tx = ReliableChannel(
            sim, net, "tx",
            config=ChannelConfig(
                retry=RetryPolicy(max_attempts=3, jitter=0.0)
            ),
        )
        # no "rx" endpoint registered at all: every transmit is eaten
        tx.send("rx", "x", on_giveup=lambda: gaveup.append(True))
        sim.run()
        assert gaveup == [True]
        assert len(tx.pending_unacked()) == 0
        assert tx.gaveup == 1
        assert tx.transmits == 3


class TestOrdering:
    def test_ordered_channel_preserves_send_order_under_loss(self, sim):
        net = Network(sim, NetworkConfig(loss_rate=0.3, jitter=0.01))
        config = ChannelConfig(retry=FAST_RETRY, ordered=True)
        tx, rx, received = make_pair(sim, net, config)
        for i in range(60):
            tx.send("rx", i)
        sim.run()
        assert received == list(range(60))
        assert rx.held_for_order > 0

    def test_unordered_channel_can_reorder_under_loss(self, sim):
        net = Network(sim, NetworkConfig(loss_rate=0.3, jitter=0.01))
        config = ChannelConfig(retry=FAST_RETRY, ordered=False)
        tx, rx, received = make_pair(sim, net, config)
        for i in range(60):
            tx.send("rx", i)
        sim.run()
        assert sorted(received) == list(range(60))
        assert received != list(range(60))  # retransmits reordered some


class TestFireAndForget:
    def test_loss_is_silent(self, sim):
        net = Network(sim, NetworkConfig(loss_rate=0.3))
        config = ChannelConfig(reliable=False)
        tx, rx, received = make_pair(sim, net, config)
        for i in range(100):
            tx.send("rx", i)
        sim.run()
        assert 0 < len(received) < 100  # some lost, nobody noticed
        assert len(tx.pending_unacked()) == 0  # nothing tracked
        assert tx.retransmits == 0


class TestFailureModel:
    def test_receiver_outage_is_bridged_by_retransmission(self, sim):
        net = Network(sim)
        config = ChannelConfig(retry=FAST_RETRY)
        tx, rx, received = make_pair(sim, net, config)
        rx.crash()
        for i in range(5):
            tx.send("rx", i)
        sim.call_at(3.0, rx.recover)
        sim.run()
        assert sorted(received) == [0, 1, 2, 3, 4]
        assert net.dropped["down"] > 0

    def test_sender_crash_queues_and_recover_flushes(self, sim):
        net = Network(sim)
        config = ChannelConfig(retry=FAST_RETRY)
        tx, rx, received = make_pair(sim, net, config)
        tx.crash()
        for i in range(5):
            tx.send("rx", i)
        assert received == []
        assert len(tx.pending_unacked()) == 5
        sim.call_at(2.0, tx.recover)
        sim.run()
        assert sorted(received) == [0, 1, 2, 3, 4]
        assert len(tx.pending_unacked()) == 0

    def test_partition_window_is_bridged(self, sim):
        net = Network(sim)
        config = ChannelConfig(retry=FAST_RETRY)
        tx, rx, received = make_pair(sim, net, config)
        net.partition("tx", "rx")
        for i in range(5):
            tx.send("rx", i)
        sim.call_at(2.0, lambda: net.heal("tx", "rx"))
        sim.run()
        assert sorted(received) == [0, 1, 2, 3, 4]

    def test_breaker_trips_on_consecutive_timeouts_then_recovers(self, sim):
        net = Network(sim)
        config = ChannelConfig(
            retry=FAST_RETRY,
            breaker=CircuitBreakerConfig(failure_threshold=3, cooldown=1.0),
        )
        tx, rx, received = make_pair(sim, net, config)
        net.partition("tx", "rx")
        for i in range(5):
            tx.send("rx", i)
        sim.call_at(10.0, lambda: net.heal("tx", "rx"))
        sim.run()
        assert sorted(received) == [0, 1, 2, 3, 4]
        trips = tx.breaker("rx").trips
        fast = tx.breaker("rx").fast_failures
        assert trips >= 1
        assert fast > 0  # retransmits were actually suppressed while open
        assert tx.breaker("rx").state.value == "closed"

    @staticmethod
    def _to_partitioned_link(retry, breaker, heal_at=None):
        """12 frames to a partitioned ``rx``: (giveups as (payload,
        time), payloads received, transmits)."""
        sim = make_sim(1)
        net = Network(sim)
        tx, rx, received = make_pair(
            sim, net, ChannelConfig(retry=retry, breaker=breaker)
        )
        net.partition("tx", "rx")
        gaveup = []
        for i in range(12):
            tx.send("rx", i, on_giveup=lambda i=i: gaveup.append((i, sim.now())))
        if heal_at is not None:
            sim.call_at(heal_at, lambda: net.heal("tx", "rx"))
        sim.run()
        assert len(tx.pending_unacked()) == 0
        transmits = tx.transmits
        return gaveup, sorted(received), transmits

    def test_breaker_suppression_spends_no_attempt_budget(self):
        # two attempts each, the breaker open for ~1 s: only the frames
        # that went out as half-open probes spend their second attempt
        # and give up; every other frame is delivered after the heal
        gaveup, received, _ = self._to_partitioned_link(
            RetryPolicy(base_delay=0.05, max_delay=0.4, max_attempts=2),
            CircuitBreakerConfig(failure_threshold=1, cooldown=0.3),
            heal_at=1.0,
        )
        assert len(gaveup) == 2
        assert sorted(received + [i for i, _ in gaveup]) == list(range(12))

    def test_recover_on_a_live_channel_is_a_no_op(self):
        # regression: recover() on a channel that was already up re-ran
        # _transmit for every pending frame without cancelling its live
        # timer — one more retransmit chain per unacked frame, per call
        def run(spurious_recovers):
            sim = make_sim()
            net = Network(sim)
            tx, rx, received = make_pair(sim, net, ChannelConfig(retry=FAST_RETRY))
            rx.crash()
            for i in range(3):
                tx.send("rx", i)
            for _ in range(spurious_recovers):
                tx.recover()
            timers = sim.pending_events
            sim.run_for(1.0)
            retransmits = tx.retransmits
            rx.recover()
            rx.recover()  # the receiving end is a channel too
            sim.run()
            assert sorted(received) == [0, 1, 2] and len(tx.pending_unacked()) == 0
            return timers, retransmits

        timers, retransmits = run(0)
        assert retransmits > 0
        assert run(3) == (timers, retransmits)

    def test_sender_crash_during_half_open_probe_does_not_wedge(self, sim):
        # regression: the breaker goes half-open, grants its one probe,
        # and the sender crashes before the probe's ack timeout fires —
        # the outcome is never reported.  After recovery the stranded
        # probe slot must be reclaimed so delivery resumes.
        net = Network(sim)
        config = ChannelConfig(
            retry=FAST_RETRY,
            breaker=CircuitBreakerConfig(failure_threshold=2, cooldown=1.0),
        )
        tx, rx, received = make_pair(sim, net, config)
        net.partition("tx", "rx")
        for i in range(5):
            tx.send("rx", i)
        # the breaker trips at ~0.05 and goes half-open at ~1.05,
        # granting its probe; crashing at 1.10 cancels the probe's ack
        # timeout before it fires, stranding the probe slot
        sim.call_at(1.10, tx.crash)
        sim.call_at(1.5, lambda: net.heal("tx", "rx"))
        sim.call_at(2.0, tx.recover)
        sim.run()
        assert sorted(received) == [0, 1, 2, 3, 4]
        assert len(tx.pending_unacked()) == 0
        assert tx.breaker("rx").state.value == "closed"


class TestHostileInput:
    def test_foreign_payload_on_a_channel_endpoint_fails_loudly(self, sim):
        # anything but a channel frame is a protocol violation: it must
        # name the channel, the sender and the type — not die as a bare
        # assert (or, under -O, an AttributeError deep in the receiver)
        net = Network(sim)
        tx, rx, received = make_pair(sim, net)
        net.send("stranger", "rx", {"topic": "cdc", "key": "k", "payload": 1})
        with pytest.raises(WireError, match=r"'rx'.*dict.*'stranger'"):
            sim.run()
        assert received == []
        assert net.frames_sent == 1  # nothing acked
        assert "resilience.rx.received" not in net.metrics.names()


class TestDeterminism:
    def test_identical_seed_identical_outcome(self):
        def run(seed):
            sim = make_sim(seed)
            net = Network(sim, NetworkConfig(loss_rate=0.25, jitter=0.02))
            config = ChannelConfig(retry=FAST_RETRY)
            tx, rx, received = make_pair(sim, net, config)
            for i in range(40):
                tx.send("rx", i)
            end = sim.run()
            return (
                received,
                end,
                tx.retransmits,
                rx.duplicates_dropped,
            )

        assert run(5) == run(5)
        assert run(5) != run(6)


# -- receiver dedup state: low-watermark + out-of-order set ---------------

_WINDOW = 6


@st.composite
def _arrivals(draw):
    """Seqs 0..n-1, each displaced by at most ``_WINDOW`` positions'
    worth of seq distance, with duplicates (retransmits) mixed in at
    arbitrary later points.  Every seq arrives at least once."""
    n = draw(st.integers(min_value=1, max_value=60))
    keys = [seq + draw(st.integers(0, _WINDOW)) for seq in range(n)]
    order = sorted(range(n), key=lambda seq: (keys[seq], seq))
    for seq in draw(st.lists(st.integers(0, n - 1), max_size=40)):
        first = order.index(seq)
        order.insert(draw(st.integers(first + 1, len(order))), seq)
    return order


@given(_arrivals(), st.booleans())
def test_seen_window_matches_set_reference_and_stays_bounded(order, needs_ack):
    sim = make_sim()
    net = Network(sim)
    handled = []
    rx = ReliableChannel(
        sim, net, "rx", handler=lambda src, payload: handled.append(payload)
    )
    reference, expected, duplicates = set(), [], 0
    for seq in order:
        rx._on_frame("tx", _DataFrame(seq, seq, needs_ack))
        if seq in reference:
            duplicates += 1
        else:
            reference.add(seq)
            expected.append(seq)
        seen = rx._seen["tx"]
        # same membership as the grow-forever set it replaces...
        assert set(range(seen.floor)) | seen.ahead == reference
        # ...held in at most a reorder window of state
        assert len(seen.ahead) <= _WINDOW
    assert handled == expected
    snapshot = net.metrics.snapshot()
    assert snapshot["resilience.rx.received"] == len(expected)
    assert snapshot.get("resilience.rx.duplicates_dropped", 0) == duplicates
    # the gap-free prefix is all watermark, no per-frame residue
    assert rx._seen["tx"].floor == len(reference)
    assert not rx._seen["tx"].ahead
