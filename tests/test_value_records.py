"""The hot value records are slotted dataclasses that behave as the
frozen dataclasses they replaced.

``Message``, ``ChangeRecord``, ``CommittedTransaction`` and the edge
``Update`` are built once per update on the store → broker → applier
and edge paths.  They are ``@dataclass(slots=True, unsafe_hash=True)``:
no instance ``__dict__``, the same fields in the same order, and
equality, hash and repr equal to a frozen dataclass of the same name
and fields (``Message`` keeps its own compact repr).
"""

import dataclasses

import pytest

from repro._types import Mutation
from repro.cdc.capture import ChangeRecord
from repro.edge.session import Update
from repro.pubsub.message import Message
from repro.storage.history import CommittedTransaction

CASES = [
    (
        Message,
        ("topic", "partition", "offset", "key", "payload", "publish_time"),
        ("t", 2, 7, "k", ("put", 3), 1.5),
    ),
    (
        ChangeRecord,
        ("key", "mutation", "txn_version", "txn_index", "txn_size"),
        ("k", Mutation.put("v"), 9, 1, 4),
    ),
    (
        CommittedTransaction,
        ("version", "writes", "commit_time"),
        (9, (("k", Mutation.put("v")), ("j", Mutation.delete())), 0.25),
    ),
    (
        Update,
        ("key", "version", "value", "is_delete", "partition", "offset"),
        ("k", 9, "v", False, 3, 12),
    ),
]


def _frozen_twin(cls):
    """A frozen dataclass with ``cls``'s name and fields."""
    return dataclasses.make_dataclass(
        cls.__name__, [f.name for f in dataclasses.fields(cls)], frozen=True
    )


@pytest.mark.parametrize(
    "cls, names, values", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_slotted_record_matches_its_frozen_twin(cls, names, values):
    record = cls(*values)
    assert not hasattr(record, "__dict__")
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert cls.__slots__ == names

    twin = _frozen_twin(cls)(*values)
    assert hash(record) == hash(twin) == hash(values)
    if cls is Message:
        assert repr(record) == "Message(t[2]@7 key='k')"
    else:
        assert repr(record) == repr(twin)

    assert record == cls(*values)
    assert record != twin  # equality compares the class first, as before
    assert record != cls(object(), *values[1:])
    assert dataclasses.astuple(record) == dataclasses.astuple(twin)


def test_update_defaults_are_unchanged():
    assert Update("k", 1) == Update("k", 1, None, False, None, None)
    assert repr(Update("k", 1)) == (
        "Update(key='k', version=1, value=None, is_delete=False, "
        "partition=None, offset=None)"
    )
