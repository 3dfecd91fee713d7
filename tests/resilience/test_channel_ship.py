"""The channel's one ship path, pinned mode by mode.

``ReliableChannel._ship`` is the only place a frame — a single payload
or a closed group — leaves for the wire.  Two gates:

1. a table over {unbatched, batched} × {reliable, fire-and-forget} ×
   {sender up, sender crashed}: counters, the trace record each frame
   emits, and what ``recover()`` re-kicks;
2. a differential model of group frames: any program of sends, crashes,
   partition windows and clock steps delivers the same per-destination
   payload sequence exactly once whether or not the sender batches.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.trace import Tracer
from repro.resilience.channel import ChannelConfig, ReliableChannel
from repro.resilience.retry import RetryPolicy
from repro.sim.network import Network, NetworkConfig
from repro.transport import BatchConfig
from tests.conftest import make_sim

FAST_RETRY = RetryPolicy.unbounded(base_delay=0.05, max_delay=0.5)


# -- 1. the mode table ---------------------------------------------------

@pytest.mark.parametrize("crashed", [False, True], ids=["up", "crashed"])
@pytest.mark.parametrize("reliable", [True, False], ids=["reliable", "forget"])
@pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
def test_ship_path_counters_trace_and_recovery(sim, batched, reliable, crashed):
    net = Network(sim)
    tracer = Tracer(sim)
    config = ChannelConfig(
        retry=FAST_RETRY, reliable=reliable,
        batch=BatchConfig(max_batch=2, max_linger=10.0) if batched else None,
    )
    received = []
    ReliableChannel(
        sim, net, "rx", handler=lambda src, p: received.append(p), config=config
    )
    tx = ReliableChannel(sim, net, "tx", config=config, tracer=tracer)

    def counter(name):
        return net.metrics.counter(f"resilience.tx.{name}").value

    def trace():
        return [(e.hop, e.attrs) for e in tracer.log if e.component == "tx"]

    if crashed:
        tx.crash()
    seqs = [tx.send("rx", payload) for payload in ("a", "b")]

    # two messages: two frames, or one size-flushed group of two
    frame_seqs = [0] if batched else [0, 1]
    group = {"n_events": 2} if batched else {}
    assert seqs == ([0, 0] if batched else [0, 1])
    assert counter("sent") == 2
    transmit = [
        ("channel.transmit",
         {"channel": "tx", "dst": "rx", "seq": seq, "attempt": 1, **group})
        for seq in frame_seqs
    ]
    if not crashed:
        assert counter("transmits") == len(frame_seqs)
        assert trace() == transmit
    else:
        assert counter("transmits") == 0
        # a reliable frame parks silently; a forgotten one dies on record
        assert trace() == ([] if reliable else [
            ("channel.sender_down",
             {"channel": "tx", "dst": "rx", "seq": seq, **group})
            for seq in frame_seqs
        ])
    assert tx.pending_unacked() == (
        [("rx", seq) for seq in frame_seqs] if reliable else []
    )

    # recover() re-kicks exactly the parked reliable frames
    before = len(tracer.log)
    tx.recover()
    assert trace()[before:] == (transmit if reliable and crashed else [])
    sim.run_for(1.0)
    lost = crashed and not reliable
    assert received == ([] if lost else ["a", "b"])
    assert counter("transmits") == (0 if lost else len(frame_seqs))
    assert tx.pending_unacked() == []


# -- 2. group frames against the unbatched channel -----------------------

_DSTS = ("rx0", "rx1", "rx2")
_dst = st.sampled_from(_DSTS)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("send"), _dst),
        st.tuples(
            st.sampled_from(["crash", "recover"]), st.sampled_from(("tx",) + _DSTS)
        ),
        st.tuples(st.sampled_from(["partition", "heal"]), _dst),
        st.tuples(
            st.just("run_for"),
            st.sampled_from([0.0, 0.0005, 0.004, 0.05, 0.3]),
        ),
    ),
    max_size=60,
)


def _run_program(steps, loss_rate, batch):
    sim = make_sim(7)
    net = Network(sim, NetworkConfig(loss_rate=loss_rate, jitter=0.002))
    config = ChannelConfig(retry=FAST_RETRY, ordered=True, batch=batch)
    received = {dst: [] for dst in _DSTS}
    peers = {}
    for dst in _DSTS:
        peers[dst] = ReliableChannel(
            sim, net, dst,
            handler=lambda src, payload, log=received[dst]: log.append(payload),
            config=config,
        )
    tx = peers["tx"] = ReliableChannel(sim, net, "tx", config=config)
    sent = {dst: [] for dst in _DSTS}
    acked = []
    for n, (op, arg) in enumerate(steps):
        if op == "send":
            sent[arg].append(n)
            tx.send(arg, n, on_delivered=lambda n=n: acked.append(n))
        elif op == "crash":
            peers[arg].crash()
        elif op == "recover":
            peers[arg].recover()
        elif op == "partition":
            net.partition("tx", arg)
        elif op == "heal":
            net.heal("tx", arg)
        else:
            sim.run_for(arg)
    for dst in _DSTS:
        net.heal("tx", dst)
    for peer in peers.values():
        peer.recover()
    sim.run_for(120.0)
    assert tx.pending_unacked() == []
    assert sorted(acked) == sorted(n for log in sent.values() for n in log)
    return sent, received


@settings(max_examples=60, deadline=None)
@given(steps=_steps, loss_rate=st.sampled_from([0.0, 0.2]))
def test_group_frames_deliver_what_the_unbatched_channel_delivers(steps, loss_rate):
    sent, unbatched = _run_program(steps, loss_rate, batch=None)
    _, batched = _run_program(
        steps, loss_rate, batch=BatchConfig(max_batch=3, max_linger=0.003)
    )
    # ordered + reliable: each destination sees exactly its send sequence
    assert unbatched == sent
    assert batched == sent
