#!/usr/bin/env python3
"""Traffic census: every library class must be reached by some traffic.

Runs, in this one process, with a ``sys.setprofile`` hook installed and
every fleet inline (``jobs=1``):

- the QUICK experiment sweep (``python -m repro.bench all --quick``);
- the variant rows of ``benchmarks/test_claims.py`` (its ``VARIANTS``);
- the four ledger workloads
  (``benchmarks/ledger/run.py --workload W --scale 0.1 --reps 1``);
- every script under ``examples/``.

The hook records every Python function that runs and, for every
``__init__`` call, the type being constructed (dataclass ``__init__``
is generated code with no file of its own, so the type is the only
trace it leaves).

Gate: exits 1 if a class defined under ``src/repro`` (outside
``repro.bench``) that defines a method is neither constructed nor has
any of its methods called — code no traffic reaches.  ABCs, Protocols
and exception classes are never flagged; any other class may be kept
only by an entry in :data:`EXEMPT`, with its reason, and an entry that
no longer names an unreached class fails the gate too.

Report (information only, never gates): the count of unreached
functions per module.

    PYTHONPATH=src python scripts/traffic_census.py

Needs ``pytest`` importable (``benchmarks/test_claims.py`` imports it).
Takes about three minutes on a 2-vCPU box; the hook slows the sweep
several-fold.
"""

from __future__ import annotations

import abc
import contextlib
import importlib
import importlib.util
import inspect
import io
import pkgutil
import runpy
import sys
import time
from pathlib import Path
from typing import Dict, List, Set

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCHMARKS = ROOT / "benchmarks"
for path in (str(SRC), str(BENCHMARKS)):
    if path not in sys.path:
        sys.path.insert(0, path)

import repro  # noqa: E402

#: classes no census traffic reaches, kept on purpose: qualified name ->
#: why.  ROADMAP.md lists them as surfaces no experiment reaches yet.
EXEMPT: Dict[str, str] = {
    "repro.storage.index.SecondaryIndex": (
        "reproduces a paper element: docs/paper_mapping.md row "
        "'\"reads, scans, writes, indices\" of real stores'"
    ),
    "repro.storage.index.UniqueIndex": (
        "reproduces a paper element: docs/paper_mapping.md row "
        "'\"reads, scans, writes, indices\" of real stores'"
    ),
    "repro.storage.view.FilteredView": (
        "reproduces a paper element: docs/paper_mapping.md row "
        "'§4.1 filtered views'"
    ),
    "repro.pubsub.dlq.DeadLetterPolicy": (
        "reproduces a paper element: docs/paper_mapping.md row "
        "'\"dead-letter queues\" (Azure)'"
    ),
    "repro.sim.wire.Opaque": (
        "wire codec: what decode() returns for an unregistered object; "
        "encode/decode are the reference the wire tests check against"
    ),
    "repro.sim.wire.CallableRef": (
        "wire codec: what decode() returns for a callable; encode/decode "
        "are the reference the wire tests check against"
    ),
}

LEDGER_WORKLOADS = (
    "broker-fanout", "repl-net-unbatched", "repl-net-batched",
    "watch-edge-storm",
)


class Census:
    """The profile hook: functions run and types constructed."""

    def __init__(self) -> None:
        self.called: Set[object] = set()
        self.constructed: Set[type] = set()

    def hook(self, frame, event, arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        self.called.add(code)
        if code.co_name == "__init__" and code.co_argcount:
            instance = frame.f_locals.get(code.co_varnames[0])
            if instance is not None:
                self.constructed.add(type(instance))

    @contextlib.contextmanager
    def installed(self):
        sys.setprofile(self.hook)
        try:
            yield
        finally:
            sys.setprofile(None)


# ----------------------------------------------------------------------
# traffic


def _inline_fleets() -> None:
    """Every ``process_map`` caller runs its items in this process, where
    the hook can see them."""
    from repro.fleet import pool

    real = pool.process_map

    def inline(fn, items, jobs=1):
        return real(fn, items, jobs=1)

    for name in ("repro.fleet", "repro.fleet.runner", "repro.bench.__main__"):
        module = importlib.import_module(name)
        if getattr(module, "process_map", None) is real:
            module.process_map = inline


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _sweep() -> None:
    from repro.bench.__main__ import main

    if main(["all", "--quick"]) != 0:
        raise SystemExit("census: the QUICK sweep failed; fix it first")


def _variants() -> None:
    from repro.bench import experiments
    from repro.bench.runner import sizing

    claims = _load(BENCHMARKS / "test_claims.py", "_census_test_claims")
    for param in claims.VARIANTS:
        experiment_id, overrides = param.values
        module = experiments.get(experiment_id)
        params = dict(sizing(module, quick=True), **overrides)
        module.check(module.run(**params), params)


def _ledger() -> None:
    ledger = _load(BENCHMARKS / "ledger" / "run.py", "_census_ledger_run")
    for workload in LEDGER_WORKLOADS:
        argv = ["--workload", workload, "--scale", "0.1", "--reps", "1"]
        if ledger.main(argv) != 0:
            raise SystemExit(f"census: ledger workload {workload} failed")


def _examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(path), run_name="__main__")


TRAFFIC = (
    ("QUICK sweep", _sweep),
    ("test_claims VARIANTS", _variants),
    ("ledger workloads", _ledger),
    ("examples", _examples),
)


# ----------------------------------------------------------------------
# what the library defines


def _library_modules() -> List[object]:
    modules = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.bench" or info.name.startswith("repro.bench."):
            continue
        modules.append(importlib.import_module(info.name))
    return sorted(modules, key=lambda module: module.__name__)


def _own_codes(owner: object, filename: str) -> List[object]:
    """Code objects of the functions written in ``owner``'s body (class
    or module) in ``filename``: plain, static and class methods and
    property accessors; generated dataclass methods have no file."""
    codes = []
    for attr in vars(owner).values():
        if isinstance(attr, (staticmethod, classmethod)):
            attr = attr.__func__
        functions = (
            (attr.fget, attr.fset, attr.fdel)
            if isinstance(attr, property) else (attr,)
        )
        for function in functions:
            code = getattr(function, "__code__", None)
            if code is not None and code.co_filename == filename:
                codes.append(code)
    return codes


def _never_flagged(cls: type) -> bool:
    return (
        issubclass(cls, BaseException)
        or abc.ABC in cls.__bases__
        or inspect.isabstract(cls)
        or getattr(cls, "_is_protocol", False)
    )


def main() -> int:
    census = Census()
    _inline_fleets()
    for label, drive in TRAFFIC:
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), census.installed():
            drive()
        print(f"ran {label} ({time.perf_counter() - started:.0f} s)")

    unreached_classes = []
    unreached_functions = {}
    for module in _library_modules():
        filename = module.__file__
        codes = _own_codes(module, filename)
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            methods = _own_codes(cls, filename)
            codes += methods
            if not methods or _never_flagged(cls):
                continue
            if cls in census.constructed or any(
                code in census.called for code in methods
            ):
                continue
            unreached_classes.append(f"{module.__name__}.{cls.__qualname__}")
        missed = sum(code not in census.called for code in codes)
        if missed:
            unreached_functions[module.__name__] = (missed, len(codes))

    print("\nunreached functions per module (information only):")
    for name, (missed, total) in sorted(unreached_functions.items()):
        print(f"  {name:<40} {missed:>4} / {total}")
    missed_total = sum(missed for missed, _ in unreached_functions.values())
    print(f"  {'total':<40} {missed_total:>4}")

    flagged = [name for name in unreached_classes if name not in EXEMPT]
    stale = sorted(set(EXEMPT) - set(unreached_classes))
    print(f"\nclasses no traffic reaches: {len(unreached_classes)} "
          f"({len(unreached_classes) - len(flagged)} exempt)")
    for name in flagged:
        print(f"  UNREACHED {name}: delete it, or exempt it with a reason")
    for name in stale:
        print(f"  STALE EXEMPTION {name}: reached or gone; drop the entry")
    return 1 if flagged or stale else 0


if __name__ == "__main__":
    sys.exit(main())
