"""Hostile bytes: ``wire.decode`` returns a value or raises ``WireError``.

Nothing on the send path decodes (receivers get the Python object), but
the codec is the repo's definition of a frame, and tooling decodes bytes
it did not produce.  Malformed input must fail loudly and attributably
— a ``WireError`` — never as whatever a half-built value happens to
trip over (``UnicodeDecodeError``, ``TypeError``, ``RecursionError``, a
registered class's own ``ValueError``).  Two fuzzers: raw byte strings,
and byte-level mutations (flip, insert, delete, truncate) of encoded
instances of every registered frame kind.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.wire import WireError, decode, encode
from tests.transport.test_wire_registry_roundtrip import _registered


def _reg(name: str, *fields: bytes) -> bytes:
    """Hand-built registered-class bytes: name, field count, fields."""
    raw = name.encode()
    return b"rs" + bytes([len(raw)]) + raw + bytes([len(fields)]) + b"".join(fields)


#: one per way decode used to leak a non-WireError exception
_HOSTILE = {
    "str not utf-8": b"s\x01\xff",
    "object name not utf-8": b"o\x01\xffn",
    "callable name not utf-8": b"c\x01\xff",
    "unhashable dict key": b"m\x01l\x00i\x02",
    "nesting past the recursion limit": b"l\x01" * 5000 + b"n",
    "registered name not a str": b"ri\x02\x00",
    "MutationKind rejects its value": _reg("types.MutationKind", b"s\x03bad"),
    "KeyRange rejects low > high": _reg("types.KeyRange", b"s\x01b", b"s\x01a"),
    "CausalStamp rejects its deps": _reg("causal.Stamp", b"i\x02", b"i\x0a"),
}


@pytest.mark.parametrize("data", list(_HOSTILE.values()), ids=list(_HOSTILE))
def test_hostile_frames_raise_wire_error(data):
    with pytest.raises(WireError):
        decode(data)


def _decodes_or_raises_wire_error(data: bytes) -> None:
    try:
        decode(data)
    except WireError:
        pass  # the only exception malformed input may raise


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=64))
@example(b"l\x01" * 5000 + b"n")
def test_raw_bytes_decode_or_raise_wire_error(data):
    _decodes_or_raises_wire_error(data)


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["flip", "insert", "delete", "truncate"]),
        st.integers(0, 2**16),  # position, wrapped to the frame's length
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=500, deadline=None)
@given(_registered, _EDITS)
def test_mutated_registered_frames_decode_or_raise_wire_error(obj, edits):
    data = bytearray(encode(obj))
    for op, at, byte in edits:
        at %= len(data) + 1
        if op == "insert":
            data.insert(at, byte)
        elif op == "truncate":
            del data[at:]
        elif at < len(data):
            if op == "flip":
                data[at] ^= byte or 1
            else:
                del data[at]
    _decodes_or_raises_wire_error(bytes(data))
