"""Model-based testing of the partition log (offsets, GC, compaction)."""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.pubsub.log import CompactionPolicy, PartitionLog, RetentionPolicy


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class PartitionLogMachine(RuleBasedStateMachine):
    """The model: a list of (offset, key, payload, publish_time) plus
    explicit replication of the retention/compaction rules."""

    def __init__(self):
        super().__init__()
        self.clock = _Clock()
        self.log = PartitionLog(
            "t", 0,
            retention=RetentionPolicy(max_age=100.0),
            compaction=CompactionPolicy(recent_window=20.0),
            clock=self.clock,
        )
        self.model = []  # retained messages: (offset, key, time)
        self.next_offset = 0

    @rule(key=st.one_of(st.none(), st.sampled_from(["k1", "k2", "k3"])))
    def append(self, key):
        message = self.log.append(key, f"p{self.next_offset}")
        assert message.offset == self.next_offset
        self.model.append((self.next_offset, key, self.clock.t))
        self.next_offset += 1

    @rule(dt=st.floats(min_value=0.5, max_value=40.0))
    def advance_time(self, dt):
        self.clock.t += dt

    @rule()
    def run_gc(self):
        self.log.run_gc()
        horizon = self.clock.t - 100.0
        self.model = [m for m in self.model if m[2] >= horizon]

    @rule()
    def run_compaction(self):
        self.log.run_compaction()
        horizon = self.clock.t - 20.0
        old = [m for m in self.model if m[2] < horizon]
        recent = [m for m in self.model if m[2] >= horizon]
        keep_latest = {}
        for offset, key, t in old:
            if key is not None:
                keep_latest[key] = offset
        survivors = [
            m for m in old
            if m[1] is None or keep_latest[m[1]] == m[0]
        ]
        self.model = sorted(survivors + recent)

    # ------------------------------------------------------------------

    @invariant()
    def retained_offsets_match_model(self):
        real = [m.offset for m in self.log._messages]
        expected = [m[0] for m in self.model]
        assert real == expected

    @invariant()
    def offsets_strictly_increasing(self):
        offsets = [m.offset for m in self.log._messages]
        assert offsets == sorted(set(offsets))

    @invariant()
    def read_from_zero_returns_retained(self):
        assert [m.offset for m in self.log.read_from(0)] == [
            m[0] for m in self.model
        ]

    @invariant()
    def gc_floor_below_first_retained(self):
        if self.model:
            assert self.log.gc_floor <= self.model[0][0]


TestPartitionLogModel = PartitionLogMachine.TestCase
TestPartitionLogModel.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
