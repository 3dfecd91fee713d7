"""Wire codec: round-trip identity, exact sizing, and byte conservation.

The three contracts the byte counters stand on:

1. ``decode(encode(x)) == x`` for everything that crosses the wire —
   including empty batches and max-size frames;
2. ``wire_size(x) == len(encode(x))`` always (the sizing walk may never
   drift from the encoder — ``net.bytes.*`` uses the walk, tooling uses
   the bytes);
3. every frame's bytes land on exactly one outcome counter:
   ``net.bytes.sent == net.bytes.delivered + Σ net.bytes.dropped.*``
   through every drop cause the funnel knows.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import KeyRange, Mutation, MutationKind
from repro.core.events import ChangeEvent, ProgressEvent
from repro.pubsub.message import Message
from repro.resilience.channel import _DataFrame, _GroupPayload
from repro.sim.kernel import Simulation
from repro.sim.network import Network, NetworkConfig
from repro.sim.wire import (
    CallableRef,
    Opaque,
    WireError,
    decode,
    encode,
    register,
    wire_size,
)

# -- strategies ----------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),  # NaN breaks the == in round-trip identity
    st.text(max_size=16),
    st.binary(max_size=16),
)

_payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(
            st.one_of(st.text(max_size=8), st.integers()),
            children,
            max_size=4,
        ),
    ),
    max_leaves=24,
)

_mutations = st.one_of(
    st.builds(Mutation.put, _scalars),
    st.just(Mutation.delete()),
)
_events = st.builds(
    ChangeEvent,
    st.text(min_size=1, max_size=8),
    _mutations,
    st.integers(min_value=0, max_value=10_000),
)
_frames = st.builds(
    lambda seq, events: _DataFrame(seq, _GroupPayload(list(events)), needs_ack=True),
    st.integers(min_value=0, max_value=10_000),
    st.lists(_events, max_size=6),
)


# -- property: round trip + sizing --------------------------------------

@given(_payloads)
def test_roundtrip_identity_arbitrary_payloads(payload):
    data = encode(payload)
    assert decode(data) == payload
    assert wire_size(payload) == len(data)


@given(_frames)
def test_roundtrip_identity_update_batches(frame):
    # includes the empty batch: st.lists(min_size=0) generates it
    data = encode(frame)
    assert decode(data) == frame
    assert wire_size(frame) == len(data)


@given(_frames, st.integers(min_value=0, max_value=100))
def test_channel_frame_wrapping_preserves_sizing(frame, seq):
    wrapped = _DataFrame(seq, _GroupPayload([frame]), needs_ack=True)
    data = encode(wrapped)
    assert decode(data) == wrapped
    assert wire_size(wrapped) == len(data)
    # pre-sizing the inner frame must not change the outer size or bytes
    frame.cached_size = wire_size(frame)
    assert wire_size(wrapped) == len(data)
    assert encode(wrapped) == data


def test_sizing_shortcuts_agree_with_encoder_at_every_varint_boundary():
    # the walk takes closed-form shortcuts (bit_length, isascii, one-byte
    # lengths) where the encoder loops; pin both sides of each boundary
    edges = [0, 1, 63, 64, 127, 128, 8191, 8192, 2**20, 2**31, 2**63, 2**70]
    for n in edges:
        for value in (n, -n, n - 1, -n - 1, n + 1):
            assert wire_size(value) == len(encode(value)), value
    for n in (0, 1, 127, 128, 16383, 16384):
        for text in ("a" * n, "é" * n, "a" * n + "\u20ac"):
            assert wire_size(text) == len(encode(text)), (n, text[:4])
        assert wire_size(b"x" * n) == len(encode(b"x" * n))
        assert wire_size([None] * n) == len(encode([None] * n))
        assert wire_size((True,) * n) == len(encode((True,) * n))
        mapping = dict.fromkeys(range(n), 1.5)
        assert wire_size(mapping) == len(encode(mapping))


def test_max_size_frame_roundtrip():
    frame = _DataFrame(
        2**40,
        _GroupPayload([
            ChangeEvent(f"key-{i}", Mutation.put({"v": i, "blob": b"x" * i}), i)
            for i in range(2_000)
        ]),
        needs_ack=True,
    )
    data = encode(frame)
    assert wire_size(frame) == len(data)
    assert decode(data) == frame


# -- registered classes and fallbacks ------------------------------------

def test_registered_classes_reconstruct_real_instances():
    for obj in (
        Mutation.put({"a": 1}),
        Mutation.delete(),
        MutationKind.PUT,
        KeyRange("a", "b"),
        ChangeEvent("k", Mutation.put(7), 3),
        ProgressEvent("a", "z", 9),
        Message("topic", 1, 42, "key", {"p": True}, 1.5),
        _GroupPayload([1, "two", None]),
    ):
        decoded = decode(encode(obj))
        assert type(decoded) is type(obj)
        assert decoded == obj


def test_unregistered_object_falls_back_to_opaque():
    class Unregistered:
        def __init__(self):
            self.a = 1
            self.b = "two"

    decoded = decode(encode(Unregistered()))
    assert isinstance(decoded, Opaque)
    assert decoded.name.endswith("Unregistered")
    assert decoded.state == {"a": 1, "b": "two"}


def test_callable_encodes_as_deterministic_ref():
    first = encode(test_callable_encodes_as_deterministic_ref)
    assert first == encode(test_callable_encodes_as_deterministic_ref)
    decoded = decode(first)
    assert isinstance(decoded, CallableRef)
    assert "test_callable_encodes_as_deterministic_ref" in decoded.name
    # lambdas have no memory-address component either
    assert encode(lambda: 1) == encode(lambda: 2)


def test_register_rejects_name_collisions():
    class A:
        pass

    class B:
        pass

    register(A, "test.wire.collision", ())
    with pytest.raises(WireError):
        register(B, "test.wire.collision", ())


def test_size_cache_is_authoritative_for_sizing_only():
    frame = _DataFrame(1, _GroupPayload(["x", "y"]), needs_ack=True)
    fresh = encode(frame)
    assert frame.cached_size == 0  # sizing alone never fills the cache
    assert wire_size(frame) == len(fresh)
    assert frame.cached_size == 0
    # once the owner stores a size, every sizing returns it — top level
    # and nested — without walking the fields again...
    frame.cached_size = len(fresh)
    frame.payload.payloads.append("not walked")
    assert wire_size(frame) == len(fresh)
    assert wire_size([frame]) == 2 + len(fresh)
    # ...while encode stays a pure function of the fields
    assert len(encode(frame)) > len(fresh)
    frame.cached_size = 0
    assert wire_size(frame) == len(encode(frame))


def test_size_cache_is_decided_at_registration_not_per_instance():
    class Unsized:
        def __init__(self):
            self.seq = 1
            # an instance attribute that merely looks like a cache
            self.cached_size = 999

    register(Unsized, "test.wire.unsized", ("seq",))
    assert wire_size(Unsized()) == len(encode(Unsized()))


def test_malformed_frames_raise():
    with pytest.raises(WireError):
        decode(b"")
    with pytest.raises(WireError):
        decode(b"\xff")  # unknown tag
    data = encode([1, 2, 3])
    with pytest.raises(WireError):
        decode(data[:-1])  # truncated
    with pytest.raises(WireError):
        decode(data + b"n")  # trailing bytes


# -- byte conservation through the drop funnel ---------------------------

def _byte_counters(net):
    snap = net.metrics.snapshot()
    sent = int(snap.get("net.bytes.sent", 0))
    delivered = int(snap.get("net.bytes.delivered", 0))
    dropped = sum(
        int(value)
        for name, value in snap.items()
        if name.startswith("net.bytes.dropped.")
    )
    return sent, delivered, dropped


@settings(deadline=None)
@given(
    st.lists(_payloads, min_size=1, max_size=8),
    st.floats(min_value=0.0, max_value=0.9),
    st.integers(min_value=0, max_value=2**16),
)
def test_every_dropped_frame_accounts_bytes_exactly_once(
    payloads, loss_rate, seed
):
    sim = Simulation(seed=seed)
    net = Network(
        sim, NetworkConfig(base_latency=0.01, jitter=0.005, loss_rate=loss_rate)
    )
    net.register("b", lambda src, p: None)
    expected_total = 0
    for payload in payloads:
        expected_total += wire_size(payload)
        net.send("a", "b", payload)
    sim.run()
    sent, delivered, dropped = _byte_counters(net)
    assert sent == expected_total
    assert sent == delivered + dropped


def test_bytes_conserved_across_every_drop_cause(sim=None):
    sim = Simulation(seed=7)
    net = Network(sim, NetworkConfig(base_latency=0.5))
    net.register("b", lambda src, p: None)
    payload = {"k": "v" * 10}
    size = wire_size(payload)

    # send-time partition
    net.partition("a", "b")
    assert net.send("a", "b", payload) is False
    net.heal("a", "b")
    # mid-flight partition
    net.send("a", "b", payload)
    net.partition("a", "b")
    sim.run()
    net.heal("a", "b")
    # mid-flight endpoint down
    net.send("a", "b", payload)
    net.set_up("b", False)
    sim.run()
    net.set_up("b", True)
    # and one clean delivery
    net.send("a", "b", payload)
    sim.run()

    snap = net.metrics.snapshot()
    assert snap["net.bytes.sent"] == 4 * size
    assert snap["net.bytes.delivered"] == size
    assert snap["net.bytes.dropped.partition"] == 2 * size
    assert snap["net.bytes.dropped.down"] == size
    sent, delivered, dropped = _byte_counters(net)
    assert sent == delivered + dropped
