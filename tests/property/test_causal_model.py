"""Model-based conformance gate for the causal delivery tier.

The machine drives a :class:`~repro.causal.buffer.CausalBuffer` with a
randomly interleaved commit/submit/drop/advance schedule — arbitrary
reordering between commit order and submission order, upstream loss
(commits whose updates never arrive), and time advances that fire the
bounded-hold deadline — and checks the tier's formal contract:

1. **causal safety modulo forced releases** — every delivery that
   violates causal order (an unmet dep at delivery time) is exactly one
   deadline or overflow release; with no forced releases, delivery
   order extends causal order.
2. **conservation** — every submitted update is delivered or currently
   held; nothing is dropped or duplicated by the gate itself.
3. **bounded hold** — the held set never exceeds ``MAX_HELD``, and
   after quiescence (everything submitted, two deadlines of idle time)
   the buffer is empty: the gate never wedges, even when deps are lost
   upstream forever.

This file is the standing CI conformance gate: the workflow runs it
with ``CAUSAL_PROFILE=causal-ci`` (more examples, longer chains, and an
explicit ``deadline=None`` so shrinking timing-heavy failures is never
cut short by hypothesis' per-example deadline).
"""

import os
from collections import OrderedDict

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.causal import buffer as buffer_module
from repro.causal.buffer import CausalBuffer, CausalBufferConfig
from repro.causal.stamp import CausalStamp
from repro.sim.kernel import Simulation

KEYS = ("a", "b", "c", "d", "e")
WINDOW = 3
HOLD = 0.5
MAX_HELD = 8


class CausalMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulation(seed=1234)
        # a small bound, so overflow releases happen
        self._max_held = buffer_module.MAX_HELD
        buffer_module.MAX_HELD = MAX_HELD
        self.buffer = CausalBuffer(
            self.sim,
            CausalBufferConfig(hold_deadline=HOLD),
            name="model",
        )
        # the commit side (what a CausalStamper sees): a monotone
        # version counter and a bounded window of recent commits
        self.version = 0
        self.recent = OrderedDict()
        #: committed updates not yet submitted, in commit order
        self.pending = []
        self.submitted = 0
        #: delivery-order audit state
        self.applied = {}
        self.delivered = 0
        self.violations = 0

    # ------------------------------------------------------------------
    # operations

    @rule(key=st.sampled_from(KEYS))
    def commit(self, key):
        """Commit one write: stamp deps = the recent window, then fold
        the write in (mirrors CausalStamper.on_commit)."""
        self.version += 1
        deps = tuple(self.recent.items())
        self.pending.append((key, self.version, CausalStamp(self.version, deps)))
        if key in self.recent:
            del self.recent[key]
        self.recent[key] = self.version
        while len(self.recent) > WINDOW:
            self.recent.popitem(last=False)

    @rule()
    def submit_oldest(self):
        """In-order arrival."""
        if self.pending:
            self._submit(self.pending.pop(0))

    @rule(skip=st.integers(0, 6))
    def submit_out_of_order(self, skip):
        """A later update overtakes earlier ones (the FIFO violation)."""
        if self.pending:
            self._submit(self.pending.pop(min(skip, len(self.pending) - 1)))

    @rule()
    def drop_oldest(self):
        """Upstream loss: the update never reaches this consumer, so
        anything depending on it can only be deadline-released."""
        if self.pending:
            self.pending.pop(0)

    @rule(dt=st.floats(0.01, 1.5))
    def advance(self, dt):
        self.sim.run_for(dt)

    def _submit(self, update):
        key, version, stamp = update
        self.submitted += 1
        self.buffer.submit(key, version, stamp, self._delivered, update)

    def _delivered(self, update):
        key, version, stamp = update
        self.delivered += 1
        for dep_key, dep_version in stamp.deps:
            if self.applied.get(dep_key, 0) < dep_version:
                self.violations += 1
                break
        if self.applied.get(key, 0) < version:
            self.applied[key] = version

    # ------------------------------------------------------------------
    # contract

    def _forced(self):
        return self.buffer.released_deadline + self.buffer.released_overflow

    @invariant()
    def safety_modulo_forced_releases(self):
        # each forced release delivers exactly one update with an unmet
        # dep; every other delivery respects causal order
        assert self.violations == self._forced()

    @invariant()
    def conservation(self):
        assert self.delivered + self.buffer.held_count == self.submitted

    @invariant()
    def bounded_hold(self):
        assert self.buffer.held_count <= MAX_HELD

    def teardown(self):
        # quiescence: submit the stragglers (in commit order), then give
        # the deadline wheel two full periods to force out anything
        # whose deps were dropped upstream
        try:
            for update in self.pending:
                self._submit(update)
            self.pending = []
            self.sim.run_for(2 * HOLD + 0.1)
            assert self.buffer.held_count == 0
            assert self.delivered == self.submitted
            assert self.violations == self._forced()
        finally:
            buffer_module.MAX_HELD = self._max_held


TestCausalModel = CausalMachine.TestCase

settings.register_profile(
    "causal-dev",
    settings(max_examples=25, stateful_step_count=30, deadline=None),
)
settings.register_profile(
    "causal-ci",
    settings(max_examples=75, stateful_step_count=50, deadline=None),
)
TestCausalModel.settings = settings.get_profile(
    os.environ.get("CAUSAL_PROFILE", "causal-dev")
)
