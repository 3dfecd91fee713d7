"""Differential test: the watcher's list queue against the deque it replaced.

``WatcherSession`` holds its delivery queue in a plain list with a head
offset and clears the list whenever a drain delivers its last item;
``tests/core/reference_stream.py`` keeps the deque it used before.
Hypothesis writes the programs — ``offer_event`` (in range and out),
``offer_progress``, ``signal_resync``, ``cancel`` and clock steps, with
``service_time`` and ``delivery_latency`` 0 or not, ``max_backlog`` 1
to 5, a tracer or none — plus
callbacks that re-offer, offer progress, cancel or resync in the middle
of a drain.  Both must deliver the same items at the same times, report
the same ``backlog`` and ``active`` after every step, end with the same
counters, and stop the clock at the same time.

Tier-1 runs the small ``watcher-queue-dev`` profile; CI reruns this
file with ``WATCHER_QUEUE_PROFILE=watcher-queue-ci`` for a deeper search.
"""

from __future__ import annotations

import os

from hypothesis import example, given, settings, strategies as st

from repro._types import KeyRange, Mutation
from repro.core.api import FnWatchCallback
from repro.core.events import ChangeEvent, ProgressEvent
from repro.core.stream import WatcherConfig, WatcherSession
from repro.sim.kernel import Simulation
from tests.core.reference_stream import ReferenceWatcherSession

settings.register_profile(
    "watcher-queue-dev", settings(max_examples=100, deadline=None)
)
settings.register_profile(
    "watcher-queue-ci", settings(max_examples=2500, deadline=None)
)
_PROFILE = settings.get_profile(
    os.environ.get("WATCHER_QUEUE_PROFILE", "watcher-queue-dev")
)

#: the watched range; keys "a" and "e"/"f" fall outside it
_RANGE = KeyRange("b", "e")

_SPECS = st.tuples(
    st.builds(
        WatcherConfig,
        delivery_latency=st.sampled_from([0.0, 0.001]),
        service_time=st.sampled_from([0.0, 0.002]),
        max_backlog=st.integers(1, 5),
    ),
    st.sampled_from([0, 2]),  # from_version
    st.booleans(),  # traced
)

_version = st.integers(0, 8)
_ACTIONS = st.one_of(
    st.tuples(st.just("event"), st.sampled_from("abcdef"), _version),
    st.tuples(
        st.just("progress"), st.sampled_from("ac"), st.sampled_from("cf"),
        _version,
    ),
    st.tuples(st.sampled_from(["resync", "cancel"])),
    st.tuples(st.just("run_for"), st.sampled_from([0.0, 0.001, 0.003, 0.01])),
)
_PROGRAMS = st.lists(_ACTIONS, max_size=20)
#: the n-th callback (counting every on_event/on_progress/on_resync)
#: does this before returning; each fires at most once, so every
#: program terminates
_REACTIONS = st.dictionaries(
    st.integers(0, 12),
    st.sampled_from(["reoffer", "progress", "resync", "cancel"]),
    max_size=4,
)


class _World:
    """One session of ``session_cls`` on its own clock.  The world is
    its callback, its ``on_closed`` hook and its tracer: every call lands
    in :attr:`log` with the time it was made."""

    def __init__(self, session_cls, spec, reactions) -> None:
        config, from_version, traced = spec
        self.sim = Simulation(seed=7)
        self.log = []
        self.calls = 0
        self.reactions = reactions
        self.session = session_cls(
            self.sim, _RANGE, from_version,
            FnWatchCallback(
                on_event=lambda e: self._called("event", e.key, e.version),
                on_progress=lambda p: self._called(
                    "progress", p.low, p.high, p.version
                ),
                on_resync=lambda: self._called("resync"),
            ),
            config,
            on_closed=lambda session: self.log.append((self.sim.now(), "closed")),
            tracer=self if traced else None,
        )

    def record(self, hop, component, **attrs) -> None:
        self.log.append((self.sim.now(), hop, component, sorted(attrs.items())))

    def _called(self, *what) -> None:
        self.log.append((self.sim.now(),) + what)
        n = self.calls
        self.calls += 1
        reaction = self.reactions.get(n)
        session = self.session
        if reaction == "reoffer":
            session.offer_event(_event("c", 100 + n))
        elif reaction == "progress":
            session.offer_progress(ProgressEvent("a", "z", 100 + n))
        elif reaction == "resync":
            session.signal_resync()
        elif reaction == "cancel":
            session.cancel()

    def do(self, action) -> None:
        kind = action[0]
        session = self.session
        if kind == "event":
            session.offer_event(_event(action[1], action[2]))
        elif kind == "progress":
            session.offer_progress(ProgressEvent(*action[1:]))
        elif kind == "resync":
            session.signal_resync()
        elif kind == "cancel":
            session.cancel()
        else:
            self.sim.run_for(action[1])

    def state(self):
        s = self.session
        return (
            s.backlog, s.active, s.events_delivered, s.progress_delivered,
            s.resyncs_signalled, s.overflow_drops, s.delivered_version,
        )

    def play(self, program):
        for action in program:
            self.do(action)
            self.log.append((self.sim.now(), "state", self.state()))
        final = self.sim.run()
        return self.log, self.state(), final, self.sim.pending_events


def _event(key, version) -> ChangeEvent:
    return ChangeEvent(key, Mutation.put(version), version)


_ZERO_SERVICE = (WatcherConfig(delivery_latency=0.001, max_backlog=5), 0, False)


@_PROFILE
@given(_SPECS, _PROGRAMS, _REACTIONS)
# the first delivered event resyncs the session mid-drain: the list is
# cleared and refilled with the resync at index 0, behind the drain
# loop's head — a loop that keeps its own head past a callback instead
# of re-reading ``_qhead`` misses the resync and clears it away
@example(
    _ZERO_SERVICE,
    [("event", "b", 1), ("event", "c", 2), ("event", "d", 3)],
    {0: "resync"},
)
# the same, cancelled instead: nothing more may be delivered
@example(
    _ZERO_SERVICE,
    [("event", "b", 1), ("event", "c", 2), ("event", "d", 3)],
    {0: "cancel"},
)
# a callback re-offers at a full backlog of 1 and overflows
@example(
    (WatcherConfig(delivery_latency=0.0, max_backlog=1), 0, True),
    [("event", "b", 1), ("run_for", 0.0)],
    {0: "reoffer", 1: "reoffer"},
)
def test_list_queue_matches_the_deque(spec, program, reactions):
    got = _World(WatcherSession, spec, reactions).play(program)
    want = _World(ReferenceWatcherSession, spec, reactions).play(program)
    assert got == want
    assert got[-1] == 0  # drained
