"""Lint: nothing under ``src/repro`` materialises wire bytes.

The simulated network needs a frame's length, never its bytes, and
receivers get the original object — so ``wire.encode`` has no business
on any production path (it cost a quarter of the networked hop's self
time before it was removed).  This walks every module's AST and fails
on an import of, or an attribute reference to, ``repro.sim.wire.encode``
anywhere but the codec itself.  Tests, benchmarks and tooling outside
``src/repro`` may encode all they like.
"""

import ast
from pathlib import Path
from typing import List

import repro

SRC = Path(repro.__file__).resolve().parent
WIRE = "repro.sim.wire"


def encode_references(source: str) -> List[int]:
    """Line numbers where ``source`` imports or references wire.encode."""
    tree = ast.parse(source)
    aliases = set()  # local names bound to the wire module
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for name in node.names:
                if node.module == WIRE and name.name == "encode":
                    lines.append(node.lineno)
                if node.module == "repro.sim" and name.name == "wire":
                    aliases.add(name.asname or name.name)
        elif isinstance(node, ast.Import):
            for name in node.names:
                if name.name == WIRE and name.asname:
                    aliases.add(name.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "encode":
            base = ast.unparse(node.value)
            if base in aliases or base == WIRE:
                lines.append(node.lineno)
    return sorted(lines)


def test_lint_catches_every_spelling():
    assert encode_references("from repro.sim.wire import encode\n") == [1]
    assert encode_references(
        "from repro.sim.wire import register, encode as _wire_encode\n"
    ) == [1]
    assert encode_references(
        "from repro.sim import wire\n\ndef f(x):\n    return wire.encode(x)\n"
    ) == [4]
    assert encode_references(
        "from repro.sim import wire as w\nsize = len(w.encode(1))\n"
    ) == [2]
    assert encode_references(
        "import repro.sim.wire as codec\nf = codec.encode\n"
    ) == [2]
    assert encode_references(
        "import repro.sim.wire\nrepro.sim.wire.encode(1)\n"
    ) == [2]
    # str.encode and the sizing API are not the codec's encode
    assert encode_references(
        "from repro.sim import wire\n"
        "from repro.sim.wire import wire_size, register\n"
        "n = len('x'.encode('utf-8')) + wire.wire_size(1)\n"
    ) == []


def test_no_module_under_src_materialises_wire_bytes():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "sim" / "wire.py":
            continue
        lines = encode_references(path.read_text())
        if lines:
            offenders[str(path.relative_to(SRC))] = lines
    assert not offenders, (
        f"wire.encode referenced on a production path: {offenders} — "
        "size frames with wire_size (and store it in cached_size) instead"
    )
