"""Static lint: no slotted class under ``src/repro`` stores a bound
method of itself.

A class declares ``__slots__`` because it has many instances (one per
session, per event, per queued item).  ``self.<field> = self.<method>``
in such a class puts a bound method on every instance: 48 B and one
more object for the cyclic collector to walk, per instance, and a
reference cycle (instance -> bound method -> instance) that only a full
collection frees.  Post or pass ``self.<method>`` where it is used
instead; the short-lived bound method is freed by reference counting.

A method here is a function defined in the class body, not a
``property``; the rule reads every assignment in every method of the
class."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "repro"


def _is_slotted(cls: ast.ClassDef) -> bool:
    for node in cls.body:
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign)
            else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
            return True
    return False


def _methods(cls: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _is_property(func: ast.FunctionDef) -> bool:
    for decorator in func.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id == "property":
            return True
        if isinstance(decorator, ast.Attribute) and decorator.attr in (
            "setter", "getter", "deleter",
        ):
            return True
    return False


def _self_attr(node: ast.AST, self_name: str) -> str:
    """``attr`` when ``node`` is ``<self_name>.attr``, else ''."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
    ):
        return node.attr
    return ""


def self_binds(tree: ast.Module) -> List[str]:
    """``Class.field = self.method`` (with its line) for every slotted
    class in ``tree`` that stores a bound method of itself."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or not _is_slotted(cls):
            continue
        methods: Set[str] = {
            func.name for func in _methods(cls) if not _is_property(func)
        }
        for func in _methods(cls):
            args = func.args.posonlyargs + func.args.args
            if not args:
                continue
            self_name = args[0].arg
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                method = _self_attr(value, self_name)
                if method not in methods:
                    continue
                for target in targets:
                    field = _self_attr(target, self_name)
                    if field:
                        found.append(
                            f"{node.lineno} {cls.name}.{field} = "
                            f"{self_name}.{method}"
                        )
    return found


def slotted_self_binds() -> List[str]:
    found = []
    for path in sorted(LIBRARY.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        relative = path.relative_to(LIBRARY.parents[1])
        found.extend(f"{relative}:{entry}" for entry in self_binds(tree))
    return found


def test_no_slotted_class_stores_a_bound_method_of_itself():
    assert slotted_self_binds() == [], (
        "post or pass self.<method> where it is used instead of storing it"
    )


def test_the_lint_flags_only_slotted_self_binds():
    tree = ast.parse(
        "class Slotted:\n"
        "    __slots__ = ('cb', 'other', 'size', 'alias')\n"
        "    def __init__(me, peer):\n"
        "        me.cb = me._step\n"             # flagged
        "        me.other = peer._step\n"        # another object's method
        "        me.size = me.length\n"          # a property, not a method
        "        me.alias = me.unknown\n"        # not a method of the class
        "    def rebind(self):\n"
        "        self.cb = self.other = self.rebind\n"  # flagged twice
        "    def _step(self):\n"
        "        pass\n"
        "    @property\n"
        "    def length(self):\n"
        "        return 0\n"
        "class Plain:\n"
        "    def __init__(self):\n"
        "        self.cb = self._step\n"         # no __slots__: not flagged
        "    def _step(self):\n"
        "        pass\n"
    )
    assert self_binds(tree) == [
        "4 Slotted.cb = me._step",
        "9 Slotted.cb = self.rebind",
        "9 Slotted.other = self.rebind",
    ]
