"""Options follow traffic: an AST lint over the batching/causal knobs.

Every callable or dataclass under ``src/repro`` (outside ``bench/``)
that declares one of :data:`OPTIONS` must be handed it by keyword from
real traffic: a module under ``src/repro/bench/``, ``benchmarks/`` or
``examples/`` — or from another ``src/repro`` module, where a keyword
that merely forwards the caller's own option parameter counts only if
that parameter is itself reached.  Tests do not count: an option only a
test sets has no measured row (ROADMAP aim 2).  ``docs/performance.md``
("Who sets what") is the human-readable side of this table.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

OPTIONS = frozenset({
    "delivery_batch", "batch_overhead", "max_delivery_batch", "batch_handler",
    "feed_batch", "group_commit", "delivery_mode", "causal_hold",
    "causal_index",
})


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        "dataclass" in ast.unparse(decorator) for decorator in node.decorator_list
    )


class _Module(ast.NodeVisitor):
    """One pass over a module: option declarations and keyword calls."""

    def __init__(self, library: bool) -> None:
        #: a ``src/repro`` module outside ``bench/``: its declarations
        #: are checked, and its keywords may be mere forwards
        self.library = library
        #: class name -> (base names, owner of its own ctor options or None)
        self.classes = {}
        #: owner ("Class.__init__", "Class" for a dataclass, "func") -> options
        self.declared = {}
        #: (callee name or ("super", class), option, forwarding (owner, param) or None)
        self.calls = []
        self._class = None
        self._owner = None
        self._params = frozenset()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = [ast.unparse(base).rsplit(".", 1)[-1] for base in node.bases]
        ctor = None
        if _is_dataclass(node):
            ctor = node.name
            fields = {
                stmt.target.id for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            }
            self._declare(ctor, fields)
        elif any(
            isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
            for stmt in node.body
        ):
            ctor = f"{node.name}.__init__"
        self.classes[node.name] = (bases, ctor)
        outer, self._class = self._class, node.name
        self.generic_visit(node)
        self._class = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self._owner is not None:  # a closure: its calls belong to the owner
            self.generic_visit(node)
            return
        owner = f"{self._class}.{node.name}" if self._class else node.name
        args = node.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        self._declare(owner, params)
        self._owner, self._params = owner, frozenset(params & OPTIONS)
        self.generic_visit(node)
        self._owner, self._params = None, frozenset()

    def _declare(self, owner: str, names: set) -> None:
        if self.library and names & OPTIONS:
            self.declared[owner] = names & OPTIONS

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            callee = func.id
        elif ast.unparse(func) == "super().__init__":
            callee = ("super", self._class)
        elif isinstance(func, ast.Attribute):
            callee = func.attr
        else:
            callee = None
        for keyword in node.keywords:
            if callee is None or keyword.arg not in OPTIONS:
                continue
            value = keyword.value
            forward = None
            if (
                self.library
                and isinstance(value, ast.Name)
                and value.id in self._params
            ):
                forward = (self._owner, value.id)
            self.calls.append((callee, keyword.arg, forward))
        self.generic_visit(node)


def unreached_options(root: Path = ROOT):
    src = root / "src" / "repro"
    modules = [
        (path, "bench" not in path.relative_to(src).parts)
        for path in sorted(src.rglob("*.py"))
    ]
    for folder in ("benchmarks", "examples"):
        modules += [(p, False) for p in sorted((root / folder).rglob("*.py"))]

    classes, declared, calls = {}, {}, []
    for path, library in modules:
        module = _Module(library)
        module.visit(ast.parse(path.read_text()))
        classes.update(module.classes)
        declared.update(module.declared)
        calls += module.calls

    def ctor_owners(name, option):
        """Who declares ``option`` for a ``name(...)`` call: the class's
        own constructor, or the nearest inherited one."""
        pending, owners = [name], []
        while pending:
            bases, ctor = classes.get(pending.pop(), ((), None))
            if ctor is not None and option in declared.get(ctor, ()):
                owners.append(ctor)
            elif ctor is None or not ctor.endswith(".__init__"):
                pending += bases  # no ctor of its own / dataclass inheritance
        return owners

    edges = []  # (declaration reached, forwarding source or None)
    for callee, option, forward in calls:
        if isinstance(callee, tuple):
            targets = [o for base in classes[callee[1]][0]
                       for o in ctor_owners(base, option)]
        elif callee in classes:
            targets = ctor_owners(callee, option)
        else:
            targets = [
                owner for owner, names in declared.items()
                if option in names and owner.rsplit(".", 1)[-1] == callee
            ]
        edges += [((target, option), forward) for target in targets]

    live = {target for target, forward in edges if forward is None}
    grew = True
    while grew:
        grew = False
        for target, forward in edges:
            if target not in live and forward in live:
                live.add(target)
                grew = True
    return sorted(
        f"{owner}.{option}"
        for owner, names in declared.items() for option in names
        if (owner, option) not in live
    )


def test_every_batching_and_causal_option_is_set_by_traffic():
    unreached = unreached_options()
    assert unreached == [], (
        f"options no experiment, ledger workload, example or src module "
        f"ever sets: {unreached} — delete them (or give them a measured row)"
    )
