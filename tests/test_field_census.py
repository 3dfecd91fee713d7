"""Static field census: every field the library assigns is read somewhere.

Every ``self.<name> = ...`` under ``src/repro`` (outside ``repro.bench``),
and every annotated field of a ``@dataclass`` class there, must be
loaded as an attribute (``x.<name>``, or ``getattr(x, "<name>")``)
where a reader may live, or be kept by an entry in :data:`FIELD_EXEMPT`
with its reason.  A public field may be read anywhere under ``src/``,
``tests/``, ``benchmarks/``, ``scripts/`` or ``examples/``; a ``_private``
one only inside its own ``repro`` subpackage or outside ``src/``.  A
field nothing reads is a counter nobody looks at or a reference nothing
follows: delete it with every write to it.  An entry that no longer
names an unread field fails too.

The match is by attribute name, not by class: a read of ``x.active``
anywhere keeps every class's ``active``, and a read of ``x._handle`` in
``repro.core`` keeps every ``repro.core`` class's ``_handle``.  An
augmented assignment (``self.count += 1``) is a write, not a read."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "repro"
#: where any field may be read, ``_private`` ones included
OUTSIDE_READERS = ("tests", "benchmarks", "scripts", "examples")

#: fields nothing reads, kept on purpose: ``Class.field`` -> why
FIELD_EXEMPT: Dict[str, str] = {
    "CommittedTransaction.commit_time": (
        "the one use of MVCCStore's clock, which benchmarks/ledger/worlds.py "
        "passes: deleting the field leaves that option nothing to do"
    ),
    "SubscriptionSnapshot.created_at": (
        "docs/paper_mapping.md's 'repro.pubsub.replay' (seek/replay) row: "
        "a Pub/Sub snapshot records when it was taken"
    ),
}


def _python_files(top: Path):
    return sorted(top.rglob("*.py"))


def _package(path: Path) -> str:
    """The ``repro`` subpackage a library file belongs to ("" for the
    modules directly under ``repro``)."""
    parts = path.relative_to(LIBRARY).parts
    return parts[0] if len(parts) > 1 else ""


def _dataclass_fields(cls: ast.ClassDef) -> Iterable[ast.Name]:
    """The annotated names of a ``@dataclass`` (or ``@dataclass(...)``)
    class body."""
    if not any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
        and d.func.id == "dataclass"
        for d in cls.decorator_list
    ):
        return
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target


def library_fields() -> Dict[str, Tuple[str, List[str]]]:
    """``Class.field`` -> its subpackage and the ``file:line`` of every
    ``self.field = ...``, or of its ``@dataclass`` annotation, under
    ``src/repro`` outside ``repro.bench``."""
    fields: Dict[str, Tuple[str, List[str]]] = {}
    for path in _python_files(LIBRARY):
        if _package(path) == "bench":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for name in _dataclass_fields(cls):
                fields.setdefault(
                    f"{cls.name}.{name.id}", (_package(path), [])
                )[1].append(f"{path.relative_to(ROOT)}:{name.lineno}")
            for node in ast.walk(cls):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for attr in ast.walk(target):
                        if (
                            isinstance(attr, ast.Attribute)
                            and isinstance(attr.ctx, ast.Store)
                            and isinstance(attr.value, ast.Name)
                            and attr.value.id == "self"
                        ):
                            where = f"{path.relative_to(ROOT)}:{attr.lineno}"
                            fields.setdefault(
                                f"{cls.name}.{attr.attr}",
                                (_package(path), []),
                            )[1].append(where)
    return fields


def loaded_names(paths: Iterable[Path]) -> Set[str]:
    """Every attribute name loaded in ``paths``."""
    names: Set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                names.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                names.add(node.args[1].value)
    return names


def unread_fields() -> Dict[str, List[str]]:
    outside = loaded_names(
        path for top in OUTSIDE_READERS for path in _python_files(ROOT / top)
    )
    by_package: Dict[str, Set[str]] = {}
    for path in _python_files(LIBRARY):
        by_package.setdefault(_package(path), set()).update(
            loaded_names([path])
        )
    anywhere = outside.union(*by_package.values())
    unread = {}
    for name, (package, where) in library_fields().items():
        field = name.split(".", 1)[1]
        if field.startswith("_"):
            readers = outside | by_package.get(package, set())
        else:
            readers = anywhere
        if field not in readers:
            unread[name] = where
    return unread


def test_every_library_field_is_read():
    flagged = [
        f"{name} ({', '.join(where)})"
        for name, where in sorted(unread_fields().items())
        if not FIELD_EXEMPT.get(name)
    ]
    assert flagged == [], (
        "fields nothing reads: delete each with every write to it, or "
        "exempt it with a reason"
    )


def test_no_stale_field_exemption():
    assert sorted(set(FIELD_EXEMPT) - set(unread_fields())) == []
