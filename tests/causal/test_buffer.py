"""CausalBuffer: hold/release/cascade/deadline/floor semantics."""

import pytest

from repro.causal import CausalBuffer, CausalBufferConfig, CausalStamp
from repro.causal import buffer as buffer_module
from repro.obs import Tracer
from repro.obs.trace import hops


def _collector():
    seen = []

    def deliver_fn(key, version):
        return seen.append, (key, version)

    return seen, deliver_fn


def test_in_order_stream_passes_through(sim):
    seen, deliver = _collector()
    buf = CausalBuffer(sim)
    assert buf.submit("a", 1, CausalStamp(1), *deliver("a", 1))
    assert buf.submit("b", 2, CausalStamp(2, (("a", 1),)), *deliver("b", 2))
    assert seen == [("a", 1), ("b", 2)]
    assert buf.held_count == 0 and buf.held_total == 0


def test_out_of_order_held_then_released(sim):
    seen, deliver = _collector()
    buf = CausalBuffer(sim)
    # b depends on a, but arrives first
    assert not buf.submit("b", 2, CausalStamp(2, (("a", 1),)), *deliver("b", 2))
    assert buf.held_count == 1 and seen == []
    assert buf.submit("a", 1, CausalStamp(1), *deliver("a", 1))
    assert seen == [("a", 1), ("b", 2)]
    assert buf.held_count == 0 and buf.released_deps == 1


def test_cascade_releases_transitive_waiters(sim):
    seen, deliver = _collector()
    buf = CausalBuffer(sim)
    buf.submit("c", 3, CausalStamp(3, (("b", 2),)), *deliver("c", 3))
    buf.submit("b", 2, CausalStamp(2, (("a", 1),)), *deliver("b", 2))
    assert buf.held_count == 2
    buf.submit("a", 1, CausalStamp(1), *deliver("a", 1))
    assert seen == [("a", 1), ("b", 2), ("c", 3)]
    assert buf.held_count == 0 and buf.released_deps == 2


def test_deadline_releases_with_attribution(sim):
    seen, deliver = _collector()
    tracer = Tracer(sim)
    buf = CausalBuffer(
        sim, CausalBufferConfig(hold_deadline=0.1), tracer=tracer,
    )
    buf.submit("b", 2, CausalStamp(2, (("a", 1),)), *deliver("b", 2))
    sim.run(until=0.2)
    assert seen == [("b", 2)]
    assert buf.released_deadline == 1 and buf.held_count == 0
    deadline_events = [
        e for e in tracer.log if e.hop == hops.CAUSAL_DEADLINE
    ]
    assert len(deadline_events) == 1
    assert deadline_events[0].attrs["waiting_for"] == "a:1"


def test_release_cancels_deadline_timer(sim):
    seen, deliver = _collector()
    buf = CausalBuffer(sim, CausalBufferConfig(hold_deadline=0.1))
    buf.submit("b", 2, CausalStamp(2, (("a", 1),)), *deliver("b", 2))
    buf.submit("a", 1, None, *deliver("a", 1))
    sim.run(until=0.5)
    # released by deps; the deadline must not deliver a second time
    assert seen == [("a", 1), ("b", 2)]
    assert buf.released_deadline == 0 and buf.delivered == 2


def test_floor_satisfies_old_deps(sim):
    seen, deliver = _collector()
    buf = CausalBuffer(sim)
    buf.set_floor(10)
    # dep at v=7 <= floor: already observed before resume
    assert buf.submit("b", 12, CausalStamp(12, (("a", 7),)), *deliver("b", 12))
    assert seen == [("b", 12)]


def test_out_of_range_deps_ignored(sim):
    seen, deliver = _collector()
    buf = CausalBuffer(sim, in_range=lambda k: k < "m")
    assert buf.submit(
        "b", 2, CausalStamp(2, (("z", 1),)), *deliver("b", 2)
    )
    assert seen == [("b", 2)]


def test_unstamped_updates_advance_watermark(sim):
    seen, deliver = _collector()
    buf = CausalBuffer(sim)
    buf.submit("b", 2, CausalStamp(2, (("a", 1),)), *deliver("b", 2))
    assert buf.held_count == 1
    buf.submit("a", 1, None, *deliver("a", 1))  # unstamped
    assert seen == [("a", 1), ("b", 2)]


def test_overflow_force_releases_oldest(sim, monkeypatch):
    monkeypatch.setattr(buffer_module, "MAX_HELD", 2)
    seen, deliver = _collector()
    buf = CausalBuffer(sim, CausalBufferConfig(hold_deadline=10.0))
    buf.submit("b", 2, CausalStamp(2, (("a", 1),)), *deliver("b", 2))
    buf.submit("c", 3, CausalStamp(3, (("a", 1),)), *deliver("c", 3))
    buf.submit("d", 4, CausalStamp(4, (("x", 1),)), *deliver("d", 4))
    # third hold overflows MAX_HELD=2: the oldest (b) is force-released
    assert buf.released_overflow == 1
    assert seen == [("b", 2)]
    assert buf.held_count == 2


def test_flush_releases_everything_in_hold_order(sim):
    seen, deliver = _collector()
    buf = CausalBuffer(sim)
    buf.submit("c", 3, CausalStamp(3, (("x", 1),)), *deliver("c", 3))
    buf.submit("b", 2, CausalStamp(2, (("y", 1),)), *deliver("b", 2))
    assert buf.flush() == 2
    assert seen == [("c", 3), ("b", 2)]
    assert buf.held_count == 0


def test_held_and_released_hops_traced(sim):
    seen, deliver = _collector()
    tracer = Tracer(sim)
    buf = CausalBuffer(sim, tracer=tracer)
    buf.submit("b", 2, CausalStamp(2, (("a", 1),)), *deliver("b", 2))
    buf.submit("a", 1, None, *deliver("a", 1))
    hop_names = [e.hop for e in tracer.log]
    assert hops.CAUSAL_HELD in hop_names
    assert hops.CAUSAL_RELEASED in hop_names


def test_config_validation():
    with pytest.raises(ValueError):
        CausalBufferConfig(hold_deadline=0.0)
