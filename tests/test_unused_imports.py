"""Static lint: every module-level import under ``src/repro`` is used.

A name bound by a module-level ``import`` or ``from ... import`` (also
inside a top-level ``if``/``try``) must be used in that module: as a
name, as the root of an attribute chain (``typing.List``), inside a
string annotation (``"Simulation"``), or listed in ``__all__``.
``__init__.py`` files are exempt, since their imports are the package's
re-exports, and so is ``from __future__ import ...``."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "repro"


def _module_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Import statements at module level, descending into top-level
    ``if``/``try`` blocks (``TYPE_CHECKING`` guards, optional deps)."""
    pending: List[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            pending.extend(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            pending.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                pending.extend(handler.body)


def _bound_names(tree: ast.Module) -> Dict[str, int]:
    """Name -> line of every module-level import binding."""
    bound: Dict[str, int] = {}
    for node in _module_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    return bound


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _used_names(tree: ast.Module) -> Set[str]:
    used = _names(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {
                elt.value for elt in node.value.elts
                if isinstance(elt, ast.Constant)
            }
    return used


def unused_imports() -> List[str]:
    found = []
    for path in sorted(LIBRARY.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        for name, line in sorted(_bound_names(tree).items()):
            if name not in used:
                found.append(
                    f"{path.relative_to(LIBRARY.parents[1])}:{line} {name}"
                )
    return found


def test_every_module_level_import_is_used():
    assert unused_imports() == [], "delete each unused import"


def test_the_lint_sees_names_roots_and_string_annotations():
    tree = ast.parse(
        "import typing\n"
        "import os.path\n"
        "from x import A, B, C\n"
        "from y import D as E\n"
        "def f(a: 'A') -> typing.List[int]:\n"
        "    return os.path.join(B)\n"
    )
    bound, used = _bound_names(tree), _used_names(tree)
    assert sorted(name for name in bound if name not in used) == ["C", "E"]
