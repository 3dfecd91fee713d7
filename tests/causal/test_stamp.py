"""CausalStamper: window semantics, index recording, wire round-trip."""

from repro.causal import CausalStamp, CausalStamper, StampIndex
from repro.obs import Tracer
from repro.obs.trace import hops
from repro.sim import wire
from repro.storage.kv import MVCCStore


def test_stamps_record_recent_commits_as_deps(sim):
    store = MVCCStore(clock=sim.now)
    stamper = CausalStamper()
    stamper.observe_store(store)

    v1 = store.put("a", {"v": 1})
    v2 = store.put("b", {"v": 2})

    sa = stamper.index.lookup("a", v1)
    sb = stamper.index.lookup("b", v2)
    assert sa is not None and sa.deps == ()
    assert sb is not None and sb.deps == (("a", v1),)


def test_window_bounds_dep_list(sim):
    store = MVCCStore(clock=sim.now)
    stamper = CausalStamper()
    stamper.observe_store(store)

    versions = {k: store.put(k, {}) for k in "abcdef"}
    stamp = stamper.index.lookup("f", versions["f"])
    # a window of 4: only the four most recent prior commits survive
    assert stamp.deps == tuple((k, versions[k]) for k in "bcde")


def test_rewrite_moves_key_to_window_front(sim):
    store = MVCCStore(clock=sim.now)
    stamper = CausalStamper()
    stamper.observe_store(store)

    for key in "abcd":
        store.put(key, {})
    va = store.put("a", {})  # re-write: "a" re-enters at the front
    store.put("e", {})  # evicts "b", the oldest, not "a"
    vf = store.put("f", {})
    stamp = stamper.index.lookup("f", vf)
    assert ("a", va) in stamp.deps


def test_txn_writes_share_deps_and_exclude_each_other(sim):
    store = MVCCStore(clock=sim.now)
    stamper = CausalStamper()
    stamper.observe_store(store)

    v0 = store.put("x", {})
    from repro._types import Mutation

    v1 = store.commit({"a": Mutation.put(1), "b": Mutation.put(2)})
    sa = stamper.index.lookup("a", v1)
    sb = stamper.index.lookup("b", v1)
    assert sa.deps == sb.deps == (("x", v0),)


def test_stamp_round_trips_on_the_wire():
    stamp = CausalStamp(17, (("a", 3), ("b", 9)))
    data = wire.encode(stamp)
    assert wire.wire_size(stamp) == len(data)
    decoded = wire.decode(data)
    assert decoded == stamp
    assert stamp.wire_bytes() == len(data)


def test_stamper_traces_causal_stamp_hops(sim):
    store = MVCCStore(clock=sim.now)
    tracer = Tracer(sim)
    stamper = CausalStamper(tracer=tracer)
    stamper.observe_store(store)
    v = store.put("k", {"v": 1})
    events = [e for e in tracer.log if e.hop == hops.CAUSAL_STAMP]
    assert len(events) == 1
    assert events[0].key == "k" and events[0].version == v
    assert stamper.stamped == 1 and stamper.meta_bytes > 0


def test_index_lookup_misses_return_none():
    index = StampIndex()
    assert index.lookup("k", None) is None
    assert index.lookup("k", 5) is None
    index.record("k", 5, CausalStamp(5))
    assert index.lookup("k", 5).version == 5
    assert len(index._stamps) == 1
