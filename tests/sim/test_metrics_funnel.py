"""Conservation funnels of the networked hop, read from the registry.

Hypothesis writes the programs: a ``Network`` (loss 0 or 0.2, jitter)
with two reliable ``ReliableChannel`` peers, sends between them and to
an endpoint nobody registered, ``partition``/``heal``,
``Network.set_up`` on either endpoint, and channel ``crash``/``recover``
— then the simulation drains (bounded retries, so every frame is acked,
given up, or parked on a crashed sender).  From ``metrics.snapshot()``
alone, every frame and every byte sent must end in exactly one bucket,
every reliable send must be acked, given up, or still pending, and a
``net.dropped.<cause>`` name must exist exactly for the causes that
fired (the network's ``net.drop`` trace records say which).

Tier-1 runs the small ``metrics-funnel-dev`` profile; CI reruns this
file with ``METRICS_FUNNEL_PROFILE=metrics-funnel-ci`` for a deeper
search.
"""

from __future__ import annotations

import os
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.resilience.channel import ChannelConfig, ReliableChannel
from repro.resilience.retry import RetryPolicy
from repro.sim.kernel import Simulation
from repro.sim.network import Network, NetworkConfig

settings.register_profile(
    "metrics-funnel-dev", settings(max_examples=60, deadline=None)
)
settings.register_profile(
    "metrics-funnel-ci", settings(max_examples=1500, deadline=None)
)
_PROFILE = settings.get_profile(
    os.environ.get("METRICS_FUNNEL_PROFILE", "metrics-funnel-dev")
)

_PEERS = ("a", "b")
#: (src, dst); "ghost" is never registered, so its frames drop as "down"
_ROUTES = (("a", "b"), ("b", "a"), ("a", "ghost"))

_SPECS = st.tuples(
    st.sampled_from([0.0, 0.2]),  # loss rate
    st.integers(1, 4),  # max_attempts
    st.booleans(),  # ordered
)

_route = st.integers(0, len(_ROUTES) - 1)
_peer = st.sampled_from(_PEERS)
_ACTIONS = st.one_of(
    st.tuples(st.just("send"), _route, st.integers(1, 4)),
    st.tuples(st.sampled_from(["partition", "heal"]), st.integers(0, 1)),
    st.tuples(st.just("set_up"), _peer, st.booleans()),
    st.tuples(st.sampled_from(["crash", "recover"]), _peer),
    st.tuples(st.just("run_for"), st.sampled_from([0.0, 0.001, 0.05, 0.3])),
)
_PROGRAMS = st.lists(_ACTIONS, max_size=30)


class _World:
    """Two channel peers on one network; the world is the network's
    tracer and counts the causes of the drops it is told about."""

    def __init__(self, spec) -> None:
        loss, attempts, ordered = spec
        self.sim = sim = Simulation(seed=7)
        self.net = Network(
            sim, NetworkConfig(loss_rate=loss, jitter=0.002), tracer=self
        )
        config = ChannelConfig(
            retry=RetryPolicy(base_delay=0.05, max_delay=0.4, max_attempts=attempts),
            ordered=ordered,
        )
        self.peers = {
            name: ReliableChannel(
                sim, self.net, name, handler=lambda src, p: None, config=config
            )
            for name in _PEERS
        }
        self.drops = Counter()

    def record(self, hop, component, **attrs) -> None:
        if hop == "net.drop":
            self.drops[attrs["cause"]] += 1

    def do(self, action) -> None:
        kind = action[0]
        if kind == "send":
            src, dst = _ROUTES[action[1]]
            for n in range(action[2]):
                self.peers[src].send(dst, {"n": n, "pad": "x" * n})
        elif kind == "partition":
            self.net.partition(*_ROUTES[action[1]])
        elif kind == "heal":
            self.net.heal(*_ROUTES[action[1]])
        elif kind == "set_up":
            self.net.set_up(action[1], action[2])
        elif kind == "crash":
            self.peers[action[1]].crash()
        elif kind == "recover":
            self.peers[action[1]].recover()
        else:
            self.sim.run_for(action[1])


@_PROFILE
@given(_SPECS, _PROGRAMS)
def test_every_frame_byte_and_send_ends_in_one_bucket(spec, program):
    world = _World(spec)
    for action in program:
        world.do(action)
    world.sim.run(max_events=200_000)
    assert world.sim.pending_events == 0

    snapshot = world.net.metrics.snapshot()

    def count(name: str) -> float:
        return snapshot.get(name, 0.0)

    causes = {
        name[len("net.dropped."):]
        for name in snapshot if name.startswith("net.dropped.")
    }
    assert causes == set(world.drops)
    for cause, drops in world.drops.items():
        assert snapshot[f"net.dropped.{cause}"] == drops
        assert snapshot[f"net.bytes.dropped.{cause}"] > 0
    assert {
        name for name in snapshot if name.startswith("net.bytes.dropped.")
    } == {f"net.bytes.dropped.{cause}" for cause in causes}

    assert count("net.frames.sent") == count("net.delivered") + sum(
        snapshot[f"net.dropped.{cause}"] for cause in causes
    )
    assert count("net.bytes.sent") == count("net.bytes.delivered") + sum(
        snapshot[f"net.bytes.dropped.{cause}"] for cause in causes
    )
    for name, peer in world.peers.items():
        prefix = f"resilience.{name}."
        assert count(prefix + "sent") == (
            count(prefix + "acked")
            + count(prefix + "gaveup")
            + len(peer.pending_unacked())
        )
