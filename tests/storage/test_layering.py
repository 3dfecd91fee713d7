"""The storage layer sits under everything else: a module under
``repro.storage`` imports only ``repro._types``, ``repro.sim`` and
``repro.storage`` (standard-library imports are not read).

The store builds on :class:`~repro.storage.versioned_map.VersionedMap`,
which every watch client also uses; an import of ``repro.core`` (or any
other layer) from here would run that package's ``__init__`` on every
store import and turn the dependency direction around.  The check is
static, so ``TYPE_CHECKING``-guarded and function-level imports count.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

STORAGE = Path(__file__).resolve().parents[2] / "src" / "repro" / "storage"
ALLOWED = ("repro._types", "repro.sim", "repro.storage")


def _allowed(module: str) -> bool:
    if module != "repro" and not module.startswith("repro."):
        return True  # standard library or a third-party package
    return any(module == a or module.startswith(a + ".") for a in ALLOWED)


def foreign_imports(source: str, where: str) -> List[str]:
    """``where:line module`` for each import in ``source`` of a
    ``repro`` module outside :data:`ALLOWED`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative: stays inside repro.storage
                continue
            modules = [node.module or ""]
            if node.module == "repro":
                modules = [f"repro.{alias.name}" for alias in node.names]
        else:
            continue
        found.extend(
            f"{where}:{node.lineno} {module}"
            for module in modules
            if not _allowed(module)
        )
    return found


def test_storage_imports_only_types_sim_and_storage():
    files = sorted(STORAGE.rglob("*.py"))
    assert files
    offending = [
        hit
        for path in files
        for hit in foreign_imports(path.read_text(encoding="utf-8"), path.name)
    ]
    assert offending == []


def test_the_check_reads_every_import_form():
    source = (
        "import json\n"
        "import repro.core.stream\n"
        "from repro.core.versioned_map import VersionedMap\n"
        "from repro import obs, sim\n"
        "from . import kv\n"
        "from repro.sim.kernel import Simulation\n"
        "def f():\n"
        "    from repro.pubsub import Broker\n"
    )
    assert foreign_imports(source, "m.py") == [
        "m.py:2 repro.core.stream",
        "m.py:3 repro.core.versioned_map",
        "m.py:4 repro.obs",
        "m.py:8 repro.pubsub",
    ]
