"""Lint: every base of a slotted library class is slotted too.

A class declares ``__slots__`` so that its many instances (one per
session, per event, per queued item) carry no instance ``__dict__``.
A single base that declares no ``__slots__`` undoes that silently:
every instance gets a ``__dict__`` and a ``__weakref__`` pointer back,
and nothing fails.  An abstract base such as ``WatchCallback`` needs
``__slots__ = ()`` for its slotted subclasses to keep the saving.

The rule imports every module under ``repro`` and reads each class
defined there that declares ``__slots__``: every class in its MRO but
``object`` must declare ``__slots__`` as well."""

from __future__ import annotations

import importlib
import pkgutil
from typing import Iterable, List

import repro


def _library_classes() -> Iterable[type]:
    names = [repro.__name__] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, repro.__name__ + ".")
    ]
    for name in sorted(names):
        module = importlib.import_module(name)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                yield value


def unslotted_bases(classes: Iterable[type]) -> List[str]:
    """``module.Class`` for each slotted class with an unslotted base."""
    found = []
    for cls in classes:
        if "__slots__" not in vars(cls):
            continue
        if any(
            "__slots__" not in vars(base)
            for base in cls.__mro__[1:]
            if base is not object
        ):
            found.append(f"{cls.__module__}.{cls.__qualname__}")
    return sorted(set(found))


def test_no_slotted_library_class_has_an_unslotted_base():
    assert unslotted_bases(_library_classes()) == [], (
        "declare __slots__ on each base (an empty tuple when the base "
        "has no fields of its own)"
    )


def test_the_lint_flags_only_slotted_classes_with_an_unslotted_base():
    class Plain:
        pass

    class Empty:
        __slots__ = ()

    class OverPlain(Plain):
        __slots__ = ("x",)

    class OverEmpty(Empty):
        __slots__ = ("x",)

    class Deep(OverPlain):
        __slots__ = ("y",)

    class Unslotted(Empty):
        pass

    flagged = unslotted_bases(
        [Plain, Empty, OverPlain, OverEmpty, Deep, Unslotted]
    )
    assert [name.rsplit(".", 1)[1] for name in flagged] == ["Deep", "OverPlain"]
