"""Tests for partition logs: offsets, retention GC, compaction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pubsub.log import CompactionPolicy, PartitionLog, RetentionPolicy


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestAppendRead:
    def test_offsets_dense(self):
        log = PartitionLog("t", 0)
        offsets = [log.append(None, i).offset for i in range(5)]
        assert offsets == [0, 1, 2, 3, 4]
        assert log.next_offset == 5

    def test_read_from(self):
        log = PartitionLog("t", 0)
        for i in range(5):
            log.append(None, i)
        assert [m.payload for m in log.read_from(2)] == [2, 3, 4]
        assert [m.payload for m in log.read_from(0, limit=2)] == [0, 1]

    def test_get_exact(self):
        log = PartitionLog("t", 0)
        log.append("k", "v")
        assert log.read_from(0, 1)[0].payload == "v"
        assert log.read_from(5) == []

    def test_offset_for_time(self):
        clock = FakeClock()
        log = PartitionLog("t", 0, clock=clock)
        clock.t = 1.0
        log.append(None, "a")
        clock.t = 5.0
        log.append(None, "b")
        assert log.offset_for_time(0.0) == 0
        assert log.offset_for_time(2.0) == 1
        assert log.offset_for_time(99.0) == log.next_offset


class TestRetentionGC:
    def test_gc_by_age(self):
        clock = FakeClock()
        log = PartitionLog(
            "t", 0, retention=RetentionPolicy(max_age=10.0), clock=clock
        )
        log.append(None, "old")
        clock.t = 20.0
        log.append(None, "new")
        deleted = log.run_gc()
        assert deleted == 1
        assert log.gc_floor == 1
        assert [m.payload for m in log.read_from(0)] == ["new"]

    def test_gc_by_count(self):
        log = PartitionLog("t", 0, retention=RetentionPolicy(max_messages=2))
        for i in range(5):
            log.append(None, i)
        log.run_gc()
        assert [m.payload for m in log.read_from(0)] == [3, 4]

    def test_gc_ignores_consumers_silently(self):
        """read_from below the floor silently skips (the §3.1 behavior);
        only the explicit strict path raises."""
        clock = FakeClock()
        log = PartitionLog(
            "t", 0, retention=RetentionPolicy(max_age=1.0), clock=clock
        )
        log.append(None, "will-vanish")
        clock.t = 10.0
        log.run_gc()
        assert log.read_from(0) == []  # no error, no signal

    def test_unbounded_retention_never_gcs(self):
        clock = FakeClock()
        log = PartitionLog("t", 0, clock=clock)
        log.append(None, 1)
        clock.t = 1e9
        assert log.run_gc() == 0

    def test_invalid_policies(self):
        with pytest.raises(ValueError):
            RetentionPolicy(max_age=0)
        with pytest.raises(ValueError):
            RetentionPolicy(max_messages=0)
        with pytest.raises(ValueError):
            CompactionPolicy(recent_window=-1)


class TestCompaction:
    def test_keeps_latest_per_key_in_old_section(self):
        clock = FakeClock()
        log = PartitionLog(
            "t", 0, compaction=CompactionPolicy(recent_window=10.0),
            clock=clock,
        )
        log.append("k", "v1")
        log.append("k", "v2")
        log.append("j", "w1")
        clock.t = 100.0  # everything is now "old"
        deleted = log.run_compaction()
        assert deleted == 1  # k:v1 removed
        payloads = [m.payload for m in log._messages]
        assert payloads == ["v2", "w1"]

    def test_recent_window_protected(self):
        clock = FakeClock()
        log = PartitionLog(
            "t", 0, compaction=CompactionPolicy(recent_window=10.0),
            clock=clock,
        )
        log.append("k", "v1")
        log.append("k", "v2")
        clock.t = 5.0  # still inside the window
        assert log.run_compaction() == 0

    def test_unkeyed_messages_never_compacted(self):
        clock = FakeClock()
        log = PartitionLog(
            "t", 0, compaction=CompactionPolicy(recent_window=1.0),
            clock=clock,
        )
        log.append(None, "a")
        log.append(None, "b")
        clock.t = 100.0
        assert log.run_compaction() == 0

    def test_holes_do_not_move_gc_floor(self):
        clock = FakeClock()
        log = PartitionLog(
            "t", 0, compaction=CompactionPolicy(recent_window=1.0),
            clock=clock,
        )
        log.append("k", "v1")
        log.append("k", "v2")
        clock.t = 100.0
        log.run_compaction()
        assert log.gc_floor == 0
        # reading across the hole silently skips it
        assert [m.offset for m in log.read_from(0)] == [1]

    @settings(max_examples=40)
    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=40))
    def test_compaction_invariant(self, keys):
        """After full compaction, exactly the latest offset per key
        survives in the old section."""
        clock = FakeClock()
        log = PartitionLog(
            "t", 0, compaction=CompactionPolicy(recent_window=1.0),
            clock=clock,
        )
        latest = {}
        for key in keys:
            m = log.append(key, key)
            latest[key] = m.offset
        clock.t = 1e6
        log.run_compaction()
        survived = [m.offset for m in log._messages]
        assert sorted(survived) == sorted(latest.values())


class TestAccounting:
    def test_bytes_and_counters(self):
        clock = FakeClock()
        log = PartitionLog(
            "t", 0, retention=RetentionPolicy(max_messages=1), clock=clock
        )
        log.append("k", "payload")
        log.append("k", "payload2")
        assert log.bytes_written > 0
        log.run_gc()
        assert log.messages_gced == 1


@settings(max_examples=80)
@given(
    # per append: (key, seconds since the previous append)
    st.lists(
        st.tuples(st.sampled_from([None, "a", "b", "c"]), st.sampled_from([0.0, 1.0, 5.0])),
        max_size=40,
    ),
    st.integers(0, 40),  # retention: keep at most this many (0 = unbounded)
    st.booleans(),  # compact once
    st.integers(0, 45),  # read offset
    st.integers(1, 50),  # limit
)
def test_bounded_read_is_the_unbounded_read_truncated(
    appends, keep, compact, offset, limit
):
    """``read_from(offset, limit)`` copies at most ``limit`` messages and
    returns exactly the first ``limit`` of the unbounded read — below
    the GC floor, across compaction holes, and past the head."""
    clock = FakeClock()
    log = PartitionLog(
        "t", 0,
        retention=RetentionPolicy(max_messages=keep or None),
        compaction=CompactionPolicy(recent_window=2.0),
        clock=clock,
    )
    for key, dt in appends:
        clock.t += dt
        log.append(key, clock.t)
    if compact:
        log.run_compaction()
    log.run_gc()
    unbounded = log.read_from(offset)
    assert log.read_from(offset, limit) == unbounded[:limit]
    assert [m.offset for m in unbounded] == sorted(
        m.offset for m in log.read_from(0) if m.offset >= offset
    )


_LOG_OPS = st.lists(
    st.one_of(
        # append: (key, seconds since the previous op, payload length)
        st.tuples(
            st.just("append"), st.sampled_from([None, "a", "bb", "c"]),
            st.sampled_from([0.0, 1.0, 5.0]), st.integers(0, 30),
        ),
        st.tuples(st.just("read"), st.integers(0, 45)),
        st.tuples(st.just("bytes")),
        st.tuples(st.just("gc")),
        st.tuples(st.just("compact")),
    ),
    max_size=60,
)


@settings(max_examples=150)
@given(
    _LOG_OPS,
    st.sampled_from([
        RetentionPolicy(max_age=4.0),
        RetentionPolicy(max_messages=3),
        RetentionPolicy(max_age=8.0, max_messages=5),
        RetentionPolicy(),
    ]),
)
def test_lazy_bytes_written_equals_the_eager_count(ops, retention):
    """``bytes_written``, summed when read, equals the count an eager
    log keeps by adding each message's size as it is appended — read
    at any point, and across retention GC and compaction, which delete
    messages the lazy count has not sized yet."""
    clock = FakeClock()
    log = PartitionLog(
        "t", 0, retention=retention,
        compaction=CompactionPolicy(recent_window=2.0), clock=clock,
    )
    eager = 0
    for op in ops:
        if op[0] == "append":
            _, key, dt, length = op
            clock.t += dt
            eager += log.append(key, "x" * length).size()
        elif op[0] == "read":
            log.read_from(op[1])
        elif op[0] == "bytes":
            assert log.bytes_written == eager
        elif op[0] == "gc":
            log.run_gc()
        else:
            log.run_compaction()
    assert log.bytes_written == eager
    assert log.bytes_written == eager  # a second read adds nothing
