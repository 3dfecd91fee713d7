"""Shared worlds stay shared: an AST lint over the experiment modules.

:mod:`repro.bench.worlds` owns the networked cache fleet, the edge
source tier, the reconnect storm and the latest-version snapshot
function that experiments used to copy by hand, so a fix to one copy
silently missed the others.  This keeps the copies from coming back:

- no experiment module imports an underscore name from a sibling
  experiment module (a shared piece belongs in ``worlds.py``);
- the migrated experiments (:data:`MIGRATED`) never name the wiring the
  builders own (:data:`BUILDER_OWNED`) and never run the
  ``auto_reconnect = False`` storm idiom themselves;
- no experiment defines its own ``(version, dict(store.scan(...)))``
  snapshot closure.
"""

import ast
from pathlib import Path

EXPERIMENTS = (
    Path(__file__).resolve().parents[2] / "src" / "repro" / "bench" / "experiments"
)
PACKAGE = "repro.bench.experiments"

#: experiments whose topology comes from repro.bench.worlds
MIGRATED = frozenset({
    "e10_chaos_soak", "e11_edge_storm", "e12_batching",
    "e13_reconcile_chaos", "e14_session_scale", "e15_broker_batch_sweep",
    "e17_fleet_scale",
})

#: wiring only the world builders construct
BUILDER_OWNED = frozenset({
    "ReliableFanoutLink", "ReliableFanoutEndpoint",
    "FreeInvalidationPipeline", "DirectIngestBridge",
})


def _is_snapshot_closure(node: ast.FunctionDef) -> bool:
    """``node`` itself (not a function nested in it) ends in
    ``return version, dict(<store>.scan(...))``."""
    for stmt in node.body:
        value = stmt.value if isinstance(stmt, ast.Return) else None
        if isinstance(value, ast.Tuple) and len(value.elts) == 2:
            call = value.elts[1]
            if (
                isinstance(call, ast.Call)
                and ast.unparse(call.func) == "dict"
                and call.args
                and isinstance(call.args[0], ast.Call)
                and isinstance(call.args[0].func, ast.Attribute)
                and call.args[0].func.attr == "scan"
            ):
                return True
    return False


def violations(name: str, source: str) -> list:
    """Every copy-back in one experiment module's ``source``."""
    found = []
    sibling_modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if not (node.level or module.startswith(PACKAGE)):
                continue
            if module in (PACKAGE, "."):  # imports sibling modules
                sibling_modules |= {a.asname or a.name for a in node.names}
            found += [
                f"{name}: imports private {a.name} from {module}"
                for a in node.names if a.name.startswith("_")
            ]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(f"{PACKAGE}."):
                    sibling_modules.add(alias.asname or alias.name)
        elif (
            isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and ast.unparse(node.value) in sibling_modules
        ):
            found.append(f"{name}: uses private {ast.unparse(node)}")
        elif isinstance(node, ast.FunctionDef) and _is_snapshot_closure(node):
            found.append(f"{name}: defines snapshot closure {node.name}")
        if name not in MIGRATED:
            continue
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
            ident = {
                ast.Name: lambda n: n.id, ast.Attribute: lambda n: n.attr,
                ast.alias: lambda n: n.name.rsplit(".", 1)[-1],
            }[type(node)](node)
            if ident in BUILDER_OWNED:
                found.append(f"{name}: names {ident}")
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Attribute)
            and target.attr == "auto_reconnect"
            for target in node.targets
        ):
            found.append(f"{name}: runs the auto_reconnect storm idiom")
    return sorted(set(found))


def test_experiments_do_not_copy_the_shared_worlds():
    found = []
    for path in sorted(EXPERIMENTS.glob("*.py")):
        found += violations(path.stem, path.read_text())
    assert found == [], (
        f"{found} — build it with repro.bench.worlds (or move the shared "
        f"piece there) instead"
    )


def test_lint_catches_each_copy_back():
    """The lint is not vacuous: every pattern it bans is flagged."""
    copied = '''
from repro.bench.experiments.e12_batching import _txn_writer
from repro.bench.experiments import e12_batching as e12
from repro.core.relay import ReliableFanoutLink

e12._RETRY

def run(store, client):
    def store_snapshot(key_range):
        version = store.last_version
        return version, dict(store.scan(key_range, version))
    client.auto_reconnect = False
'''
    assert violations("e11_edge_storm", copied) == [
        "e11_edge_storm: defines snapshot closure store_snapshot",
        "e11_edge_storm: imports private _txn_writer from "
        "repro.bench.experiments.e12_batching",
        "e11_edge_storm: names ReliableFanoutLink",
        "e11_edge_storm: runs the auto_reconnect storm idiom",
        "e11_edge_storm: uses private e12._RETRY",
    ]
    # outside the migrated set only the import and snapshot rules apply
    assert len(violations("e3_invalidation_race", copied)) == 3
