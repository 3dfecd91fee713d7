"""Registry-complete round-trip property: every registered frame kind.

The codec's registry grows organically (a new subsystem registers its
frame types at import time — the causal tier's ``causal.Stamp`` being
the latest).  This test enumerates the registry itself and round-trips
a hypothesis-generated instance of *every* registered kind — empty
payloads, deep/nested payloads, and max-size frames included — so a
registration without codec coverage fails loudly instead of shipping an
unencodable (or worse, lossily-encoded) frame.  Complements
``test_wire.py``, which exercises hand-picked frames and the byte
funnel; this one pins the registry's closure property:

    decode(encode(x)) == x   and   wire_size(x) == len(encode(x))

for all x whose class is wire-registered.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import KeyRange, Mutation
from repro.causal.stamp import CausalStamp
from repro.core.events import ChangeEvent, ProgressEvent
from repro.pubsub.message import Message
from repro.resilience.channel import _AckFrame, _DataFrame, _GroupPayload
from repro.sim import wire

# scalar payloads the codec supports natively
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=24),
    st.binary(max_size=24),
)

# nested payloads (dicts/lists/tuples), including the empty ones
_payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)

_keys = st.text(min_size=0, max_size=16)
_versions = st.integers(min_value=0, max_value=2**32)

_mutations = st.one_of(
    _payloads.map(Mutation.put),
    st.just(Mutation.delete()),
)

_stamps = st.builds(
    CausalStamp,
    version=_versions,
    deps=st.lists(st.tuples(_keys, _versions), max_size=8).map(tuple),
)

# one strategy per registered wire name; the meta-test below asserts
# this map stays in lockstep with the live registry
KIND_STRATEGIES = {
    "types.Mutation": _mutations,
    "types.MutationKind": _mutations.map(lambda m: m.kind),
    "types.KeyRange": st.tuples(_keys, _keys).map(
        lambda pair: KeyRange(min(pair), max(pair))
    ),
    "core.ChangeEvent": st.builds(
        ChangeEvent, key=_keys, mutation=_mutations, version=_versions
    ),
    "core.ProgressEvent": st.tuples(_keys, _keys, _versions).map(
        lambda t: ProgressEvent(min(t[0], t[1]), max(t[0], t[1]), t[2])
    ),
    "pubsub.Message": st.builds(
        Message,
        topic=st.text(max_size=12),
        partition=st.integers(0, 64),
        offset=st.integers(0, 2**40),
        key=st.none() | _keys,
        payload=_payloads,
        publish_time=st.floats(0, 1e6, allow_nan=False),
    ),
    "causal.Stamp": _stamps,
    "channel.Data": st.builds(
        _DataFrame,
        seq=st.integers(0, 2**32),
        payload=_payloads,
        needs_ack=st.booleans(),
    ),
    "channel.Ack": st.builds(_AckFrame, seq=st.integers(0, 2**32)),
    "channel.Group": st.builds(
        _GroupPayload, payloads=st.lists(_payloads, max_size=6)
    ),
}

_registered = st.one_of(*KIND_STRATEGIES.values())


def test_registry_fully_covered():
    # a new register() call must come with a strategy here — this is
    # what makes the round-trip property registry-complete (test_wire.py
    # registers throwaway "test."-prefixed kinds at runtime; skip those)
    live = {name for name in wire._DECODERS if not name.startswith("test.")}
    assert set(KIND_STRATEGIES) == live


@settings(max_examples=200, deadline=None)
@given(obj=_registered)
def test_registered_kinds_round_trip(obj):
    data = wire.encode(obj)
    assert wire.wire_size(obj) == len(data)
    decoded = wire.decode(data)
    assert type(decoded) is type(obj)
    assert decoded == obj
    # decoding must not leave stale derived state: a re-encode of the
    # decoded object reproduces the same bytes
    assert wire.encode(decoded) == data


@settings(max_examples=50, deadline=None)
@given(
    payloads=st.lists(_registered | _payloads, min_size=0, max_size=32),
    seq=st.integers(0, 2**32),
)
def test_frames_of_registered_kinds_round_trip(payloads, seq):
    # frames nest arbitrary registered kinds (a batch of stamped events,
    # a group of acks...) — including the empty frame and frames at the
    # channel's max fill
    frame = _DataFrame(seq, _GroupPayload(list(payloads)), needs_ack=True)
    decoded = wire.decode(wire.encode(frame))
    assert decoded.seq == seq
    assert list(decoded.payload.payloads) == list(payloads)


@given(n_deps=st.integers(0, 64), version=_versions)
@settings(max_examples=25, deadline=None)
def test_stamp_wire_bytes_match_codec(n_deps, version):
    # the stamper's meta_bytes accounting uses CausalStamp.wire_bytes();
    # it must agree with what the codec actually puts on the wire
    stamp = CausalStamp(
        version, tuple((f"key:{i:03d}", i + 1) for i in range(n_deps))
    )
    assert stamp.wire_bytes() == len(wire.encode(stamp))
