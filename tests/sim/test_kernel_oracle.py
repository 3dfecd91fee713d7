"""Differential oracle: ``Simulation`` against the pure-heap reference.

The kernel's two lanes, wheel, slab and tombstone compaction are correct
iff no program can tell them from one heap ordered by ``(time, seq)``.
Hypothesis writes the programs — scheduling, cancelling and firing
waiters at top level *and from inside callbacks*, reserving a seq now
and scheduling it at an exact ``(time, seq)`` later, processes yielding
Timeouts, bare numbers and Waiters, bounded and unbounded runs, delays
from every routing regime of the wheel — and both kernels must report
the same fired ``(time, tag, pending_events)`` sequence, the same clock
after every run and the same ``pending_events`` between runs.

Tier-1 runs the small ``kernel-oracle-dev`` profile; CI reruns this file
with ``KERNEL_ORACLE_PROFILE=kernel-oracle-ci`` for a deeper search.
"""

from __future__ import annotations

import itertools
import os
from collections import deque

from hypothesis import example, given, settings, strategies as st

from repro.sim.kernel import Simulation, Timeout
from repro.sim.timerwheel import TimerWheel
from tests.sim.reference_kernel import ReferenceSimulation

settings.register_profile(
    "kernel-oracle-dev", settings(max_examples=60, deadline=None)
)
settings.register_profile(
    "kernel-oracle-ci", settings(max_examples=1500, deadline=None)
)
_PROFILE = settings.get_profile(
    os.environ.get("KERNEL_ORACLE_PROFILE", "kernel-oracle-dev")
)

_N_WAITERS = 3

# the default wheel: 0.25 s slots, 256 per level, 3 levels, so level k
# starts 0.25 * 256**k seconds out and the horizon is 0.25 * 256**3 s.
# Eighths of a second add exactly, so the grid makes events scheduled at
# different moments collide on one instant, on and between slot starts —
# where only seq decides and the lanes and the wheel must agree on it.
_GRID = st.integers(1, 24).map(lambda k: k * 0.125)
_DELAYS = st.one_of(
    st.just(0.0),
    _GRID,
    _GRID,
    st.sampled_from([
        63.75, 64.0, 64.25, 200.0, 16_384.0, 16_384.25, 50_000.0,
        4_194_304.0, 5e6,
    ]),  # level boundaries
    st.floats(0.0, 0.24),  # sub-slot: straight to the heap
    st.floats(0.25, 63.0),  # level 0
    st.floats(64.0, 16_000.0),  # level 1
    st.floats(16_384.0, 4.0e6),  # level 2
    st.floats(4.2e6, 1e7),  # beyond the horizon: heap again
)

_YIELDS = st.one_of(
    st.tuples(st.just("timeout"), _DELAYS),
    st.tuples(st.just("number"), _DELAYS),
    st.tuples(st.just("waiter"), st.integers(0, _N_WAITERS - 1)),
)


def _actions(depth: int):
    """One action; scheduling actions carry what their callback does."""
    nested = st.lists(_actions(depth - 1), max_size=3) if depth else st.just([])
    schedule = st.tuples(st.sampled_from(["at", "after", "post"]), _DELAYS, nested)
    return st.one_of(
        schedule,
        schedule,  # listed twice: half of all actions schedule something
        # reserve a seq now; a later step schedules one reserved seq at
        # now + delay — ties with everything queued since the draw
        st.tuples(st.just("reserve")),
        st.tuples(st.just("at_seq"), _DELAYS, nested, st.integers(0, 10_000)),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("fire"), st.integers(0, _N_WAITERS - 1)),
        st.tuples(st.just("spawn"), st.lists(_YIELDS, max_size=4)),
        # enough cancelled timers in one go for _compact to run, inside
        # the run loop when this sits in a callback
        st.tuples(
            st.just("mass"), st.integers(600, 700), _DELAYS, st.integers(8, 50)
        ),
    )


_STEP = _actions(2)
_PROGRAMS = st.lists(
    # two thirds actions, one third run(until=now + delay) / run()
    st.one_of(_STEP, _STEP, st.tuples(st.just("run"), st.none() | _DELAYS)),
    max_size=25,
)


class _Driver:
    """Interprets one program against one kernel and logs what it saw."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.fired = []  # (now, tag, pending_events) per callback/resume
        self.between = []  # (now, pending_events) after each top-level step
        self.handles = []
        self.reserved = []  # seqs drawn by "reserve", not yet scheduled
        self.waiters = [sim.waiter() for _ in range(_N_WAITERS)]
        self.tags = itertools.count()

    def record(self, tag) -> None:
        self.fired.append((self.sim.now(), tag, self.sim.pending_events))

    def do(self, action) -> None:
        sim, kind = self.sim, action[0]
        if kind == "reserve":
            self.reserved.append(sim.next_seq())
        elif kind == "at_seq" and not self.reserved:
            pass  # nothing reserved yet: both kernels skip it alike
        elif kind in ("at", "after", "post", "at_seq"):
            delay, nested = action[1], action[2]
            tag = next(self.tags)

            def fn() -> None:
                self.record(tag)
                for inner in nested:
                    self.do(inner)

            if kind == "at":
                self.handles.append(sim.call_at(sim.now() + delay, fn))
            elif kind == "at_seq":
                seq = self.reserved.pop(action[3] % len(self.reserved))
                self.handles.append(sim.call_at_seq(sim.now() + delay, seq, fn))
            elif kind == "after":
                self.handles.append(sim.call_after(delay, fn))
            else:
                sim.post(delay, fn)
        elif kind == "cancel":
            if self.handles:
                self.handles[action[1] % len(self.handles)].cancel()
        elif kind == "fire":
            self.waiters[action[1]].fire(next(self.tags))
        elif kind == "spawn":
            tag = next(self.tags)
            sim.spawn(self.process(tag, action[1]), name=f"p{tag}")
        elif kind == "mass":
            _, count, delay, keep_every = action
            tag = next(self.tags)
            made = [
                sim.call_after(delay + i * 0.01, lambda i=i: self.record((tag, i)))
                for i in range(count)
            ]
            for i, handle in enumerate(made):
                if i % keep_every:
                    handle.cancel()
        else:
            until = None if action[1] is None else sim.now() + action[1]
            sim.run(until=until)

    def process(self, tag, yields):
        self.record((tag, "start"))
        for kind, arg in yields:
            if kind == "timeout":
                got = yield Timeout(arg)
            elif kind == "number":
                got = yield arg
            else:
                got = yield self.waiters[arg]
            self.record((tag, kind, got))

    def play(self, program):
        for action in program:
            self.do(action)
            self.between.append((self.sim.now(), self.sim.pending_events))
        self.sim.run()
        self.between.append((self.sim.now(), self.sim.pending_events))
        return self.fired, self.between


def _assert_same(program) -> Simulation:
    sim = Simulation(seed=1)
    fired, between = _Driver(sim).play(program)
    ref_fired, ref_between = _Driver(ReferenceSimulation(seed=1)).play(program)
    assert fired == ref_fired
    assert between == ref_between
    assert between[-1][1] == 0  # drained
    return sim


@_PROFILE
@given(_PROGRAMS)
# same instant in the heap and the zero-delay lane: seq decides
@example([("after", 0.5, [("post", 0.0, [])]), ("after", 0.5, [])])
# same instant parked in the wheel and pushed near onto the heap
@example([("after", 0.5, []), ("after", 0.375, [("after", 0.125, [])])])
# a seq reserved before two zero-delay entries, scheduled at the same
# instant after them: it must fire first, from the heap, on both kernels
@example([
    ("reserve",), ("post", 0.0, []), ("after", 0.0, []),
    ("at_seq", 0.0, [], 0),
])
# the same tie inside a callback, and a reserved slot parked in the wheel
# next to a plain timer at the same instant
@example([
    ("after", 1.0, [
        ("reserve",), ("post", 0.0, []), ("at_seq", 0.0, [], 0),
        ("reserve",), ("after", 64.0, []), ("at_seq", 64.0, [], 0),
    ]),
])
def test_any_program_fires_identically_on_both_kernels(program):
    _assert_same(program)


def test_compaction_inside_the_run_loop_matches_reference(monkeypatch):
    """Fixed program: > 512 timers cancelled from inside a callback while
    both lanes and every wheel level hold live events."""
    compactions = []
    real_compact = Simulation._compact

    def counting_compact(self):
        compactions.append(self._running)
        real_compact(self)

    monkeypatch.setattr(Simulation, "_compact", counting_compact)
    survivors = [
        ("post", 0.0, []), ("after", 0.1, []), ("at", 30.0, []),
        ("after", 2_000.0, []), ("post", 100_000.0, []), ("at", 5e6, []),
    ]
    program = survivors + [
        ("after", 1.0, [("mass", 700, 40.0, 50), ("post", 0.0, []), ("cancel", 2)]),
        ("run", 20.0),
        ("after", 70.0, [("mass", 650, 0.05, 10)]),
        ("run", None),
    ]
    sim = _assert_same(program)
    assert compactions and all(compactions)  # ran, and only mid-loop
    stats = sim.timer_stats()
    assert stats["inserted"] and stats["cascaded"] and stats["rejected"]


def test_kernel_has_two_lanes_and_one_wheel():
    """A fourth queue cannot come back unnoticed: it needs a ledger row
    (docs/performance.md § Substrate ablation) and an edit here."""
    holders = {
        name for name, value in vars(Simulation()).items()
        if isinstance(value, (list, deque, dict, set, tuple, TimerWheel))
    }
    assert holders == {"_heap", "_fast", "_wheel", "_processes"}
    transfers = [n for n in vars(TimerWheel) if n.startswith("advance")]
    assert transfers == ["advance"]
