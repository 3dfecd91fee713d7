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

A ``self.<name>`` load inside a class counts only for that class, its
bases and its subclasses (matched by class name): a read of
``self._handle`` in one class keeps no other class's ``_handle``.  Any
other load (``x.active``, ``getattr(x, "active")``) matches by
attribute name, so a read of ``x.active`` anywhere keeps every class's
``active``, and a read of ``x._handle`` in ``repro.core`` keeps every
``repro.core`` class's ``_handle``.  An augmented assignment
(``self.count += 1``) is a write, not a read."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
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


def _package(path: Path, library: Path) -> str:
    """The ``repro`` subpackage a library file belongs to ("" for the
    modules directly under ``repro``)."""
    parts = path.relative_to(library).parts
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


def library_fields(root: Path = ROOT) -> Dict[str, Tuple[str, List[str]]]:
    """``Class.field`` -> its subpackage and the ``file:line`` of every
    ``self.field = ...``, or of its ``@dataclass`` annotation, under
    ``src/repro`` outside ``repro.bench``."""
    library = root / "src" / "repro"
    fields: Dict[str, Tuple[str, List[str]]] = {}
    for path in _python_files(library):
        package = _package(path, library)
        if package == "bench":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for name in _dataclass_fields(cls):
                fields.setdefault(
                    f"{cls.name}.{name.id}", (package, [])
                )[1].append(f"{path.relative_to(root)}:{name.lineno}")
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
                            where = f"{path.relative_to(root)}:{attr.lineno}"
                            fields.setdefault(
                                f"{cls.name}.{attr.attr}", (package, [])
                            )[1].append(where)
    return fields


class Loads:
    """The attribute loads of some files: names loaded off anything but
    ``self`` in a class, and ``(class, name)`` for each ``self.<name>``
    loaded in a class's body (the innermost enclosing class)."""

    def __init__(self) -> None:
        self.names: Set[str] = set()
        self.self_loads: Set[Tuple[str, str]] = set()

    def read(self, paths: Iterable[Path]) -> "Loads":
        for path in paths:
            self._visit(ast.parse(path.read_text(encoding="utf-8")), None)
        return self

    def _visit(self, node: ast.AST, cls: Optional[str]) -> None:
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if (
                cls is not None
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                self.self_loads.add((cls, node.attr))
            else:
                self.names.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            self.names.add(node.args[1].value)
        for child in ast.iter_child_nodes(node):
            self._visit(child, cls)


def class_bases(paths: Iterable[Path]) -> Dict[str, Set[str]]:
    """Class name -> the names of its bases, over every class in
    ``paths`` (same-named classes pool their bases)."""
    bases: Dict[str, Set[str]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            named = bases.setdefault(node.name, set())
            for base in node.bases:
                if isinstance(base, ast.Subscript):  # Generic[T]
                    base = base.value
                if isinstance(base, ast.Name):
                    named.add(base.id)
                elif isinstance(base, ast.Attribute):
                    named.add(base.attr)
    return bases


def _closure(start: str, edges: Dict[str, Set[str]]) -> Set[str]:
    seen, todo = {start}, [start]
    while todo:
        for nxt in edges.get(todo.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def related_classes(cls: str, bases: Dict[str, Set[str]]) -> Set[str]:
    """``cls``, its bases and its subclasses, transitively."""
    subclasses: Dict[str, Set[str]] = {}
    for name, named in bases.items():
        for base in named:
            subclasses.setdefault(base, set()).add(name)
    return _closure(cls, bases) | _closure(cls, subclasses)


def unread_fields(root: Path = ROOT) -> Dict[str, List[str]]:
    library = root / "src" / "repro"
    outside_files = [
        path for top in OUTSIDE_READERS for path in _python_files(root / top)
    ]
    outside = Loads().read(outside_files)
    by_package: Dict[str, Loads] = {}
    for path in _python_files(library):
        by_package.setdefault(_package(path, library), Loads()).read([path])
    bases = class_bases(outside_files + _python_files(root / "src"))
    unread = {}
    for name, (package, where) in library_fields(root).items():
        cls, field = name.split(".", 1)
        if field.startswith("_"):
            readers = [outside, by_package.get(package, Loads())]
        else:
            readers = [outside, *by_package.values()]
        if any(field in loads.names for loads in readers):
            continue
        related = related_classes(cls, bases)
        if not any(
            (reader, field) in loads.self_loads
            for loads in readers
            for reader in related
        ):
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


def test_a_self_read_counts_only_in_the_class_hierarchy(tmp_path):
    """``self._x`` read in a class that neither is, extends nor is
    extended by the writer keeps nothing; a read in a subclass, or in a
    base that leaves the write to a subclass, keeps the field."""
    package = tmp_path / "src" / "repro" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "class A:\n"
        "    def __init__(self):\n"
        "        self._x = 1\n"
        "        self._y = 2\n"
        "class B:\n"
        "    def read(self):\n"
        "        return self._x\n"
        "class C(A):\n"
        "    def read(self):\n"
        "        return self._y\n"
        "class Base:\n"
        "    def read(self):\n"
        "        return self._z\n"
        "class Sub(Base):\n"
        "    def __init__(self):\n"
        "        self._z = 3\n",
        encoding="utf-8",
    )
    assert sorted(unread_fields(tmp_path)) == ["A._x"]
