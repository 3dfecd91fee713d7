"""Deterministic wire codec: real encoded bytes for simulated network hops.

Every payload handed to :class:`repro.sim.network.Network` is measured in
*actual encoded bytes* so the ``net.bytes.*`` counters report wire volume
instead of message counts.  The codec is a small tag-based binary format:

======  ======================================================
tag     encoding
======  ======================================================
``n``   None
``t``   True
``f``   False
``i``   int — zigzag + LEB128 varint (arbitrary precision)
``d``   float — 8-byte IEEE-754 big-endian
``s``   str — uvarint byte length + UTF-8
``b``   bytes — uvarint length + raw
``l``   list — uvarint count + items
``u``   tuple — uvarint count + items
``m``   dict — uvarint count + key/value pairs (iteration order)
``r``   registered class — name + uvarint field count + values
``o``   opaque object — qualname + state dict (``__dict__``/slots)
``c``   callable — ``module:qualname`` reference string
======  ======================================================

Three properties matter more than compactness:

* **Determinism** — encoding touches no RNG, no clock, and no identity
  (no memory addresses, no ``repr`` of unhashed objects).  Two runs with
  ``PYTHONHASHSEED=0`` produce byte-identical frames, which is what lets
  the byte counters appear in experiment tables.
* **Size once, never materialise** — the simulated network only needs a
  frame's *length*: in-simulation receivers get the original Python
  object zero-copy, so no production path builds (or reads) the bytes.
  :func:`wire_size` walks the object summing encoded lengths; it is kept
  provably in lockstep with :func:`encode` by a property test
  (``wire_size(x) == len(encode(x))`` for arbitrary payloads).  Hot
  senders store that length on the frame once it is frozen (a
  ``cached_size`` attribute, see :func:`register` — the reliable
  channel's data frames do) so the network, retransmits and byte
  counters reuse one walk.
  :func:`encode` / :func:`decode` are pure functions for tests and
  tooling; ``tests/sim/test_wire_hot_path.py`` keeps ``encode`` out of
  ``src/repro``.

Classes that cross the wire register with :func:`register` at their
defining module so round-trips reconstruct real instances; anything
unregistered still encodes deterministically via the opaque fallback.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "WireError",
    "encode",
    "decode",
    "wire_size",
    "register",
    "Opaque",
    "CallableRef",
]

_pack_double = struct.Struct(">d").pack
_unpack_double = struct.Struct(">d").unpack_from

_NONE = 0x6E  # n
_TRUE = 0x74  # t
_FALSE = 0x66  # f
_INT = 0x69  # i
_FLOAT = 0x64  # d
_STR = 0x73  # s
_BYTES = 0x62  # b
_LIST = 0x6C  # l
_TUPLE = 0x75  # u
_DICT = 0x6D  # m
_REG = 0x72  # r
_OBJ = 0x6F  # o
_CALL = 0x63  # c


class WireError(ValueError):
    """Raised on malformed frames or unknown decode tags."""


class Opaque:
    """Decoded stand-in for an unregistered object (name + state dict)."""

    __slots__ = ("name", "state")

    def __init__(self, name: str, state: Dict[str, Any]) -> None:
        self.name = name
        self.state = state

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Opaque)
            and self.name == other.name
            and self.state == other.state
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Opaque({self.name!r}, {self.state!r})"


class CallableRef:
    """Decoded stand-in for a callable (``module:qualname`` string)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CallableRef) and self.name == other.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CallableRef({self.name!r})"


# type -> (name bytes pre-encoded with _STR header, field name tuple,
#          constant size of tag + name + field count, carries cached_size)
_ENCODERS: Dict[type, Tuple[bytes, Tuple[str, ...], int, bool]] = {}
# name -> (factory, field name tuple)
_DECODERS: Dict[str, Tuple[Callable[..., Any], Tuple[str, ...]]] = {}
# type -> flattened slot-name tuple, for the opaque fallback
_SLOT_CACHE: Dict[type, Tuple[str, ...]] = {}


def _write_uvarint(n: int, out: bytearray) -> None:
    while n >= 0x80:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _uvarint_len(n: int) -> int:
    return (n.bit_length() + 6) // 7 or 1


def _str_header(s: str) -> bytes:
    raw = s.encode("utf-8")
    out = bytearray([_STR])
    _write_uvarint(len(raw), out)
    out += raw
    return bytes(out)


def register(
    cls: type,
    name: str,
    fields: Tuple[str, ...],
    factory: Optional[Callable[..., Any]] = None,
) -> None:
    """Register ``cls`` so instances encode as ``name`` + listed fields.

    ``factory`` (default: ``cls``) is called with the decoded field
    values positionally to reconstruct an instance.

    A class that declares a ``cached_size`` attribute (an ``int``, 0
    until sized; left out of ``fields``) opts into size caching: its
    owner stores ``wire_size(obj)`` there once the object is frozen, and
    every later sizing — top level or nested in another frame — returns
    the stored value.  The owner resets it to 0 before the object's
    fields change again.  Whether a class carries the cache is decided
    here, once, not probed per instance.
    """
    # idempotent re-registration (module reloads) is fine; a second
    # class claiming the same wire name is a bug
    if name in _DECODERS and cls not in _ENCODERS:
        raise WireError(f"wire name already registered: {name}")
    header = _str_header(name)
    _ENCODERS[cls] = (
        header,
        fields,
        1 + len(header) + _uvarint_len(len(fields)),
        hasattr(cls, "cached_size"),
    )
    _DECODERS[name] = (factory if factory is not None else cls, fields)


def _object_state(obj: Any) -> Dict[str, Any]:
    d = getattr(obj, "__dict__", None)
    if d is not None:
        return d
    cls = type(obj)
    names = _SLOT_CACHE.get(cls)
    if names is None:
        collected: List[str] = []
        for klass in cls.__mro__:
            slots = getattr(klass, "__slots__", ())
            if isinstance(slots, str):
                slots = (slots,)
            for slot in slots:
                if slot not in ("__dict__", "__weakref__"):
                    collected.append(slot)
        names = tuple(collected)
        _SLOT_CACHE[cls] = names
    return {n: getattr(obj, n) for n in names if hasattr(obj, n)}


def _callable_name(obj: Any) -> str:
    qual = getattr(obj, "__qualname__", None)
    if qual is None:
        qual = type(obj).__qualname__
    module = getattr(obj, "__module__", None) or ""
    return f"{module}:{qual}"


def _enc(obj: Any, out: bytearray) -> None:
    t = type(obj)
    if obj is None:
        out.append(_NONE)
    elif t is bool:
        out.append(_TRUE if obj else _FALSE)
    elif t is int:
        out.append(_INT)
        zz = (obj << 1) if obj >= 0 else ((-obj << 1) - 1)
        _write_uvarint(zz, out)
    elif t is float:
        out.append(_FLOAT)
        out += _pack_double(obj)
    elif t is str:
        raw = obj.encode("utf-8")
        out.append(_STR)
        _write_uvarint(len(raw), out)
        out += raw
    elif t is bytes:
        out.append(_BYTES)
        _write_uvarint(len(obj), out)
        out += obj
    elif t is list:
        out.append(_LIST)
        _write_uvarint(len(obj), out)
        for item in obj:
            _enc(item, out)
    elif t is tuple:
        out.append(_TUPLE)
        _write_uvarint(len(obj), out)
        for item in obj:
            _enc(item, out)
    elif t is dict:
        out.append(_DICT)
        _write_uvarint(len(obj), out)
        for key, value in obj.items():
            _enc(key, out)
            _enc(value, out)
    else:
        reg = _ENCODERS.get(t)
        if reg is not None:
            header, fields, _, _ = reg
            out.append(_REG)
            out += header
            _write_uvarint(len(fields), out)
            for field in fields:
                _enc(getattr(obj, field), out)
        elif callable(obj):
            name = _callable_name(obj).encode("utf-8")
            out.append(_CALL)
            _write_uvarint(len(name), out)
            out += name
        else:
            out.append(_OBJ)
            qual = f"{t.__module__}:{t.__qualname__}".encode("utf-8")
            _write_uvarint(len(qual), out)
            out += qual
            _enc(_object_state(obj), out)


def _size(obj: Any) -> int:
    # type checks in the order payloads on the wire hit them; a length
    # or zigzagged int below 128 is a one-byte varint
    t = type(obj)
    if t is str:
        n = len(obj) if obj.isascii() else len(obj.encode("utf-8"))
        return n + 2 if n < 0x80 else 1 + _uvarint_len(n) + n
    if t is int:
        if -0x40 <= obj < 0x40:
            return 2
        zz = (obj << 1) if obj >= 0 else ((-obj << 1) - 1)
        return 1 + (zz.bit_length() + 6) // 7
    if t is dict:
        n = len(obj)
        total = 2 if n < 0x80 else 1 + _uvarint_len(n)
        for key, value in obj.items():
            total += _size(key) + _size(value)
        return total
    if t is tuple or t is list:
        n = len(obj)
        total = 2 if n < 0x80 else 1 + _uvarint_len(n)
        for item in obj:
            total += _size(item)
        return total
    if obj is None or t is bool:
        return 1
    if t is float:
        return 9
    if t is bytes:
        n = len(obj)
        return 1 + _uvarint_len(n) + n
    reg = _ENCODERS.get(t)
    if reg is not None:
        _, fields, total, sized = reg
        if sized and obj.cached_size:
            return obj.cached_size
        for field in fields:
            total += _size(getattr(obj, field))
        return total
    if callable(obj):
        n = len(_callable_name(obj).encode("utf-8"))
        return 1 + _uvarint_len(n) + n
    qual = f"{t.__module__}:{t.__qualname__}"
    n = len(qual.encode("utf-8"))
    return 1 + _uvarint_len(n) + n + _size(_object_state(obj))


def encode(obj: Any) -> bytes:
    """Encode ``obj`` to its deterministic wire bytes.

    A pure function of the object's registered fields; nothing in
    ``src/repro`` calls it — the network sizes frames with
    :func:`wire_size` and never builds their bytes.
    """
    out = bytearray()
    _enc(obj, out)
    return bytes(out)


def wire_size(obj: Any) -> int:
    """Exact ``len(encode(obj))`` without materializing the bytes."""
    return _size(obj)


def _read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    end = len(data)
    while True:
        if pos >= end:
            raise WireError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7


def _utf8(data: bytes, pos: int, n: int, what: str) -> str:
    if pos + n > len(data):
        raise WireError(f"truncated {what}")
    try:
        return data[pos : pos + n].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"{what} is not UTF-8: {exc.reason}") from None


def _dec(data: bytes, pos: int) -> Tuple[Any, int]:
    if pos >= len(data):
        raise WireError("truncated frame")
    tag = data[pos]
    pos += 1
    if tag == _NONE:
        return None, pos
    if tag == _TRUE:
        return True, pos
    if tag == _FALSE:
        return False, pos
    if tag == _INT:
        zz, pos = _read_uvarint(data, pos)
        return (zz >> 1) if not (zz & 1) else -((zz + 1) >> 1), pos
    if tag == _FLOAT:
        if pos + 8 > len(data):
            raise WireError("truncated float")
        return _unpack_double(data, pos)[0], pos + 8
    if tag == _STR:
        n, pos = _read_uvarint(data, pos)
        return _utf8(data, pos, n, "str"), pos + n
    if tag == _BYTES:
        n, pos = _read_uvarint(data, pos)
        if pos + n > len(data):
            raise WireError("truncated bytes")
        return data[pos : pos + n], pos + n
    if tag == _LIST or tag == _TUPLE:
        n, pos = _read_uvarint(data, pos)
        items = []
        for _ in range(n):
            item, pos = _dec(data, pos)
            items.append(item)
        return (items if tag == _LIST else tuple(items)), pos
    if tag == _DICT:
        n, pos = _read_uvarint(data, pos)
        result: Dict[Any, Any] = {}
        for _ in range(n):
            key, pos = _dec(data, pos)
            value, pos = _dec(data, pos)
            try:
                result[key] = value
            except TypeError:
                raise WireError(
                    f"unhashable dict key of type {type(key).__name__}"
                ) from None
        return result, pos
    if tag == _REG:
        name, pos = _dec(data, pos)
        if type(name) is not str:
            raise WireError(f"registered-class name is a {type(name).__name__}")
        nfields, pos = _read_uvarint(data, pos)
        values = []
        for _ in range(nfields):
            value, pos = _dec(data, pos)
            values.append(value)
        entry = _DECODERS.get(name)
        if entry is None:
            return Opaque(name, {str(i): v for i, v in enumerate(values)}), pos
        factory, fields = entry
        if len(values) != len(fields):
            raise WireError(f"field count mismatch for {name}")
        try:
            return factory(*values), pos
        except (TypeError, ValueError) as exc:  # fields the class rejects
            raise WireError(f"cannot rebuild {name}: {exc!r}") from None
    if tag == _OBJ:
        n, pos = _read_uvarint(data, pos)
        name = _utf8(data, pos, n, "object name")
        state, pos = _dec(data, pos + n)
        return Opaque(name, state), pos
    if tag == _CALL:
        n, pos = _read_uvarint(data, pos)
        return CallableRef(_utf8(data, pos, n, "callable name")), pos + n
    raise WireError(f"unknown wire tag: {tag:#x}")


def decode(data: bytes) -> Any:
    """Decode wire bytes back to a payload (inverse of :func:`encode`).

    Any malformed input — truncated, trailing bytes, an unknown tag,
    invalid UTF-8, an unhashable dict key, fields a registered class
    rejects, nesting past the interpreter's recursion limit — raises
    :class:`WireError` and nothing else.
    """
    try:
        obj, pos = _dec(data, 0)
    except RecursionError:
        raise WireError("frame nests too deeply to decode") from None
    if pos != len(data):
        raise WireError(f"{len(data) - pos} trailing bytes after frame")
    return obj
