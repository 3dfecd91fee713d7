"""Every exception class under ``repro`` survives a pickle round trip.

Fleet workers (``repro.fleet.process_map``) send a shard's exception to
the parent over a pipe, so an exception that cannot be unpickled turns
into a misleading ``TypeError`` there.  The classes are discovered by
walking the package, so a new exception is covered without editing this
file.  ``repro.bench`` is the harness, not the library, and is skipped.
"""

from __future__ import annotations

import importlib
import inspect
import pickle
import pkgutil

import pytest

import repro

#: constructor arguments per class whose ``__init__`` needs more than a
#: message; every other class is built from one message string
_ARGS = {
    "ConflictError": ("k", 3, 5),
    "CursorCorruption": ("ahead", "k", "v9 > watermark v4"),
    "HistoryTruncatedError": (2, 7),
    "OffsetOutOfRangeError": (4, 10),
    "UnknownTopicError": ("orders",),
}


def _exception_classes():
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.bench" or info.name.startswith("repro.bench."):
            continue
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == info.name:
                found[f"{cls.__module__}.{cls.__qualname__}"] = cls
    return [found[name] for name in sorted(found)]


_CLASSES = _exception_classes()


def test_discovery_finds_the_library_exceptions():
    names = {cls.__name__ for cls in _CLASSES}
    assert set(_ARGS) <= names
    assert {"SimError", "WireError", "StorageError", "BreakerOpen"} <= names


@pytest.mark.parametrize(
    "cls", _CLASSES, ids=[f"{c.__module__}.{c.__qualname__}" for c in _CLASSES]
)
def test_round_trip_keeps_type_fields_and_message(cls):
    exc = cls(*_ARGS.get(cls.__name__, ("something failed",)))
    restored = pickle.loads(pickle.dumps(exc))
    assert type(restored) is cls
    assert str(restored) == str(exc)
    assert restored.args == exc.args
    assert vars(restored) == vars(exc)
