"""Static field census: every field the library assigns is read somewhere.

Every ``self.<name> = ...`` under ``src/repro`` (outside ``repro.bench``)
must be loaded as an attribute (``x.<name>``, or ``getattr(x, "<name>")``)
somewhere under ``src/``, ``tests/``, ``benchmarks/``, ``scripts/`` or
``examples/``, or be kept by an entry in :data:`FIELD_EXEMPT` with its
reason.  A field nothing reads is a counter nobody looks at or a
reference nothing follows: delete it with every write to it.  An entry
that no longer names an unread field fails too.

The match is by attribute name, not by class: a read of ``x.active``
anywhere keeps every class's ``active``.  An augmented assignment
(``self.count += 1``) is a write, not a read."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "repro"
READERS = ("src", "tests", "benchmarks", "scripts", "examples")

#: fields nothing reads, kept on purpose: ``Class.field`` -> why
FIELD_EXEMPT: Dict[str, str] = {
    "ClientSession.close_reason": (
        "a __slots__ entry of the per-session object: dropping it shrinks "
        "every session and moves E14's bytes_per_sess cells, which this "
        "census may not do"
    ),
}


def _python_files(top: Path):
    return sorted(top.rglob("*.py"))


def library_fields() -> Dict[str, List[str]]:
    """``Class.field`` -> the ``file:line`` of every ``self.field = ...``
    under ``src/repro`` outside ``repro.bench``."""
    fields: Dict[str, List[str]] = {}
    for path in _python_files(LIBRARY):
        if path.relative_to(LIBRARY).parts[0] == "bench":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
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
                                f"{cls.name}.{attr.attr}", []
                            ).append(where)
    return fields


def loaded_names() -> Set[str]:
    """Every attribute name loaded anywhere a reader may live."""
    names: Set[str] = set()
    for top in READERS:
        for path in _python_files(ROOT / top):
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
    loaded = loaded_names()
    return {
        name: where for name, where in library_fields().items()
        if name.split(".", 1)[1] not in loaded
    }


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
