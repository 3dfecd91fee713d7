"""Differential test: the retransmit clock against per-frame timers.

``ReliableChannel`` keeps one retransmit clock per channel — a heap of
deadlines and a few kernel alarms at entry slots;
``tests/resilience/reference_channel.py`` restores one
``call_after(delay, ...)`` timer per transmit.  Hypothesis writes the
programs — sends on several routes (two of the four peers send), loss 0
or 0.2, crash/recover of either end (``recover()`` re-kicks every
pending frame), partition windows, breaker suppression and half-open
probes, batched and unbatched, ``ordered=True``, give-up by
``max_attempts`` — and both must produce the same
tracer log with every handler call and ``on_delivered``/``on_giveup``
in between (each with its time), the same metrics snapshot (every
``resilience.*`` and ``net.*`` counter), breaker transitions and
``pending_unacked()``, and the same clock after an unbounded ``run()``.

Tier-1 runs the small ``channel-retx-dev`` profile; CI reruns this file
with ``CHANNEL_RETX_PROFILE=channel-retx-ci`` for a deeper search.
"""

from __future__ import annotations

import os

from hypothesis import example, given, settings, strategies as st

from repro.resilience.breaker import CircuitBreakerConfig
from repro.resilience.channel import ChannelConfig, ReliableChannel
from repro.resilience.retry import RetryPolicy
from repro.sim.kernel import Simulation
from repro.sim.network import Network, NetworkConfig
from repro.transport import BatchConfig
from tests.resilience.reference_channel import ReferenceChannel

settings.register_profile(
    "channel-retx-dev", settings(max_examples=60, deadline=None)
)
settings.register_profile(
    "channel-retx-ci", settings(max_examples=1500, deadline=None)
)
_PROFILE = settings.get_profile(
    os.environ.get("CHANNEL_RETX_PROFILE", "channel-retx-dev")
)

_PEERS = ("tx", "rx0", "rx1", "rx2")
#: (src, dst): two senders, so two retransmit clocks, one of them also
#: a receiver
_ROUTES = (("tx", "rx0"), ("tx", "rx1"), ("tx", "rx2"), ("rx0", "tx"), ("rx0", "rx1"))

_RETRIES = [
    RetryPolicy.unbounded(base_delay=0.05, max_delay=0.4),
    RetryPolicy(base_delay=0.05, max_delay=0.4, max_attempts=3),
    # gives up at the first ack deadline
    RetryPolicy(base_delay=0.05, max_delay=0.4, max_attempts=1),
    # no jitter: frames sent at one instant share a deadline, ordered by seq
    RetryPolicy(base_delay=0.05, max_delay=0.4, jitter=0.0, max_attempts=4),
]
_BREAKERS = [
    None,
    CircuitBreakerConfig(failure_threshold=2, cooldown=0.3),
    CircuitBreakerConfig(failure_threshold=1, cooldown=0.1, half_open_probes=2),
]
_BATCHES = [None, BatchConfig(max_batch=3, max_linger=0.003)]

_SPECS = st.tuples(
    st.builds(
        ChannelConfig,
        retry=st.sampled_from(_RETRIES),
        ordered=st.booleans(),
        breaker=st.sampled_from(_BREAKERS),
        batch=st.sampled_from(_BATCHES),
    ),
    st.sampled_from([0.0, 0.2]),  # loss rate
)

_route = st.integers(0, len(_ROUTES) - 1)
_ACTIONS = st.one_of(
    st.tuples(st.just("send"), _route, st.integers(1, 4)),
    st.tuples(st.sampled_from(["crash", "recover"]), st.sampled_from(_PEERS)),
    st.tuples(st.sampled_from(["partition", "heal"]), _route),
    st.tuples(
        st.just("run_for"),
        st.sampled_from([0.0, 0.0005, 0.004, 0.05, 0.3, 1.0]),
    ),
)
_PROGRAMS = st.lists(_ACTIONS, max_size=25)


def _check_clock(channel) -> None:
    """The retransmit clock's invariants: alarms at distinct entries in
    strict (deadline, seq) order with the earliest last, the earliest at
    or before every live entry, one live entry per pending frame while
    the channel is up (none while down), and an exact dead count."""
    alarms = [entry[:2] for entry, _ in channel._alarms]
    assert all(later > earlier for later, earlier in zip(alarms, alarms[1:]))
    live = [entry[:2] for entry in channel._retx if entry[2] is not None]
    assert len(channel._retx) - len(live) == channel._dead
    assert len(live) == (len(channel._pending) if channel.up else 0)
    if live:
        assert alarms and alarms[-1] <= min(live)


class _CheckedChannel(ReliableChannel):
    """The channel under test, checking its clock after every alarm."""

    def _on_alarm(self) -> None:
        super()._on_alarm()
        _check_clock(self)


class _World:
    """Four channel peers on one lossy network, every one of them built
    from ``channel_cls``.  The world is also their tracer: every channel
    record lands in :attr:`log` with the time it was made, interleaved
    with handler calls and delivery callbacks."""

    def __init__(self, channel_cls, spec) -> None:
        config, loss = spec
        self.sim = sim = Simulation(seed=11)
        self.net = Network(sim, NetworkConfig(loss_rate=loss, jitter=0.002))
        self.log = []
        self.peers = {
            name: channel_cls(
                sim, self.net, name, handler=self._handler(name),
                config=config, tracer=self,
            )
            for name in _PEERS
        }
        self.sent = 0

    def record(self, hop, component, **attrs) -> None:
        self.log.append((self.sim.now(), hop, component, sorted(attrs.items())))

    def _handler(self, name):
        def handle(src, payload):
            self.log.append((self.sim.now(), "handled", name, src, payload))

        return handle

    def _note(self, *what):
        return lambda: self.log.append((self.sim.now(),) + what)

    def do(self, action) -> None:
        kind = action[0]
        if kind == "send":
            src, dst = _ROUTES[action[1]]
            for _ in range(action[2]):
                n = self.sent
                self.sent += 1
                seq = self.peers[src].send(
                    dst, n,
                    on_delivered=self._note("delivered", n),
                    on_giveup=self._note("gaveup", n),
                )
                self.log.append((self.sim.now(), "sent", src, dst, n, seq))
        elif kind == "crash":
            self.peers[action[1]].crash()
        elif kind == "recover":
            self.peers[action[1]].recover()
        elif kind == "partition":
            self.net.partition(*_ROUTES[action[1]])
        elif kind == "heal":
            self.net.heal(*_ROUTES[action[1]])
        else:
            self.sim.run_for(action[1])

    def play(self, program):
        for action in program:
            self.do(action)
            for peer in self.peers.values():
                if isinstance(peer, _CheckedChannel):
                    _check_clock(peer)
        # heal and revive everything so every frame is acked or given
        # up, then drain: no alarm may outlive the last pending frame
        for route in _ROUTES:
            self.net.heal(*route)
        for peer in self.peers.values():
            peer.recover()
        final = self.sim.run(max_events=500_000)
        return (
            self.log,
            self.net.metrics.snapshot(),
            {name: peer.pending_unacked() for name, peer in self.peers.items()},
            {
                (name, dst): breaker.transitions
                for name, peer in self.peers.items()
                for dst, breaker in sorted(peer._breakers.items())
            },
            final,
            self.sim.pending_events,
        )


def _assert_same(spec, program) -> _World:
    world = _World(_CheckedChannel, spec)
    got = world.play(program)
    want = _World(ReferenceChannel, spec).play(program)
    assert got == want
    assert got[-1] == 0  # drained
    assert all(not unacked for unacked in got[2].values())
    # nothing pending: no alarm armed, no entry queued
    assert all(not p._alarms and not p._retx for p in world.peers.values())
    return world


_UNBOUNDED = (ChannelConfig(retry=_RETRIES[0]), 0.0)
#: tx sends two frames to a partitioned rx1 at one instant; the second's
#: jittered deadline is the earlier one, so it undercuts the first
#: frame's alarm and gets an alarm of its own
_UNDERCUT = [("partition", 1), ("send", 1, 2), ("run_for", 0.3), ("heal", 1)]
#: a frame to a partitioned rx1, then three to rx0, one of which
#: undercuts it: that frame is acked ~1 ms later, so its alarm fires
#: stale while the rx1 frame is still pending
_UNDERCUT_THEN_ACKED = [
    ("partition", 1), ("send", 1, 1), ("send", 0, 3), ("run_for", 0.3),
    ("heal", 1),
]


@_PROFILE
@given(_SPECS, _PROGRAMS)
@example(_UNBOUNDED, _UNDERCUT)
@example(_UNBOUNDED, _UNDERCUT_THEN_ACKED)
# no jitter on a lossy link: frames two channels send at one instant
# share a deadline, and each must fire at its own reserved seq — an
# alarm on a fresh seq would reorder the two channels' retransmits
@example(
    (ChannelConfig(retry=_RETRIES[3]), 0.2),
    [("send", 0, 1), ("send", 0, 1), ("send", 0, 1), ("send", 3, 4)],
)
# a frame to a partitioned rx1 undercuts the alarm of a frame to rx0,
# which is acked; the rx1 frame then gives up at its first deadline —
# the clock must stop with the last pending frame, or the rx0 frame's
# alarm would fire stale after every real event and move the end clock
@example(
    (ChannelConfig(retry=_RETRIES[2]), 0.0),
    [("partition", 1), ("send", 0, 2), ("send", 1, 1)],
)
def test_retransmit_clock_is_indistinguishable_from_per_frame_timers(spec, program):
    _assert_same(spec, program)


def test_the_examples_exercise_undercuts_and_stale_fires():
    """The two ``@example`` programs really take the paths they name."""
    tx = _assert_same(_UNBOUNDED, _UNDERCUT).peers["tx"]
    assert tx.undercut_alarms == 1 and tx.stale_fires == 0
    tx = _assert_same(_UNBOUNDED, _UNDERCUT_THEN_ACKED).peers["tx"]
    assert tx.undercut_alarms == 1 and tx.stale_fires == 1


def test_compaction_drops_dead_entries_and_keeps_live_ones():
    """600 frames acked while one stays pending: once 512 dead entries
    outnumber the live ones the heap keeps only the live, and the
    pending frame still retransmits at its own slots."""
    program = (
        [("partition", 1), ("send", 1, 1)]
        + [("send", 0, 4)] * 150
        + [("run_for", 0.004), ("run_for", 0.004)]  # every ack, no deadline
    )
    world = _World(_CheckedChannel, _UNBOUNDED)
    for action in program:
        world.do(action)
    tx = world.peers["tx"]
    assert len(tx.pending_unacked()) == 1 and tx.stale_fires == 0
    assert len(tx._retx) == 601 - 512 and tx._dead == 600 - 512
    _check_clock(tx)
    _assert_same(_UNBOUNDED, program + [("run_for", 0.3), ("heal", 1)])


def test_crash_with_frames_in_flight_and_giveup_match_reference():
    """Fixed program: a sender crash freezes frames mid-backoff (its
    alarms are cancelled, never re-armed), sends while crashed queue,
    recover() re-kicks them on fresh seqs, and a bounded policy gives
    up on a destination that stays partitioned."""
    spec = (
        ChannelConfig(
            retry=_RETRIES[1],
            breaker=CircuitBreakerConfig(failure_threshold=2, cooldown=0.3),
        ),
        0.2,
    )
    program = [
        ("partition", 2), ("send", 2, 3), ("send", 0, 2), ("run_for", 0.05),
        ("crash", "tx"), ("send", 1, 2), ("run_for", 0.3), ("recover", "tx"),
        ("run_for", 0.004), ("crash", "rx0"), ("send", 3, 2),
        ("run_for", 1.0), ("recover", "rx0"), ("run_for", 1.0),
    ]
    world = _assert_same(spec, program)
    gave_up = [entry for entry in world.log if entry[1] == "gaveup"]
    assert gave_up  # the partitioned frames exhausted max_attempts
