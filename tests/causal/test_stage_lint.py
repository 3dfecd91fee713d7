"""Causal order is one stage: the pipelines carry no trace of it.

An AST lint over ``repro.pubsub``, ``repro.edge``, ``repro.core`` and
``repro.cdc``: none of their modules may import from ``repro.causal``,
or declare a parameter, field, attribute or keyword whose name
contains ``causal``.  A world that wants cross-key order composes
:mod:`repro.causal.stage` around the pipelines instead (docs/causal.md).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
PIPELINES = ("pubsub", "edge", "core", "cdc")


def _names(node):
    """(kind, name, line) for every name ``node`` declares or passes."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        for arg in (
            args.posonlyargs + args.args + args.kwonlyargs
            + [a for a in (args.vararg, args.kwarg) if a is not None]
        ):
            yield "parameter", arg.arg, arg.lineno
    elif isinstance(node, ast.ClassDef):
        for stmt in node.body:
            targets = (
                [stmt.target] if isinstance(stmt, ast.AnnAssign)
                else stmt.targets if isinstance(stmt, ast.Assign) else []
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    yield "field", target.id, stmt.lineno
                    if target.id == "__slots__":
                        for slot in ast.walk(stmt.value):
                            if isinstance(slot, ast.Constant):
                                yield "field", str(slot.value), stmt.lineno
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        yield "attribute", node.attr, node.lineno
    elif isinstance(node, ast.keyword) and node.arg is not None:
        yield "keyword", node.arg, node.lineno


def violations(src: Path = SRC):
    found = []
    for package in PIPELINES:
        for path in sorted((src / package).rglob("*.py")):
            where = path.relative_to(src.parent)
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    modules = []
                for module in modules:
                    if module == "repro.causal" or module.startswith("repro.causal."):
                        found.append(f"{where}:{node.lineno} imports {module}")
                for kind, name, line in _names(node):
                    if "causal" in name.lower():
                        found.append(f"{where}:{line} {kind} {name}")
    return found


def test_pipelines_know_nothing_of_causal_order():
    found = violations()
    assert found == [], (
        "causal order leaked into a pipeline; compose it in "
        "repro.causal.stage instead:\n" + "\n".join(found)
    )


def test_lint_sees_a_leak(tmp_path):
    # the lint is not vacuous: each kind of leak is reported
    edge = tmp_path / "edge"
    edge.mkdir()
    for package in PIPELINES[:1] + PIPELINES[2:]:
        (tmp_path / package).mkdir()
    (edge / "leaky.py").write_text(
        "from repro.causal.buffer import CausalBuffer\n"
        "class Config:\n"
        "    causal_hold: float = 0.25\n"
        "    __slots__ = ('causal',)\n"
        "def build(causal_index=None):\n"
        "    self.causal_buffer = None\n"
        "    make(delivery_mode='fifo', causal_index=causal_index)\n"
    )
    kinds = [line.split(" ", 1)[1].split(" ")[0] for line in violations(tmp_path)]
    assert sorted(kinds) == [
        "attribute", "field", "field", "imports", "keyword", "parameter",
    ]
