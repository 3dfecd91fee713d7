"""Lints: nothing under ``src/repro`` materialises wire bytes, and
exactly one module puts frames on the network.

The simulated network needs a frame's length, never its bytes, and
receivers get the original object — so ``wire.encode`` has no business
on any production path (it cost a quarter of the networked hop's self
time before it was removed).  This walks every module's AST and fails
on an import of, or an attribute reference to, ``repro.sim.wire.encode``
anywhere but the codec itself.  Tests, benchmarks and tooling outside
``src/repro`` may encode all they like.

The second lint pins the single sender: ``Network.send`` is called from
``resilience/channel.py`` and nowhere else under ``src/repro``, so
there is one implementation of "a frame crosses the lossy network" for
loss provenance, byte accounting and retransmits to reason about.
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


def network_send_calls(source: str) -> List[int]:
    """Line numbers where ``source`` calls ``send`` on a network.

    A receiver named like one (``net``/``network``, underscores and
    ``self.`` aside) or a three-positional-argument ``send(src, dst,
    payload)`` — the channels' own ``send`` takes ``(dst, payload)``.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "send"
        ):
            receiver = ast.unparse(node.func.value).rsplit(".", 1)[-1]
            if receiver.lstrip("_") in ("net", "network") or len(node.args) == 3:
                lines.append(node.lineno)
    return lines


def test_send_lint_tells_network_from_channel():
    assert network_send_calls("self.net.send(self.name, dst, frame)\n") == [1]
    assert network_send_calls("ok = net.send(src, dst, frame)\n") == [1]
    assert network_send_calls("self._network.send(*args)\n") == [1]
    assert network_send_calls("wire.send(a, b, payload=c)\nlink.send(a, b, c)\n") == [2]
    assert network_send_calls(
        "seq = self.channel.send(self.remote, frame, on_delivered=done)\n"
        "yielded = handle._gen.send(value)\n"
    ) == []


def test_network_send_has_exactly_one_calling_module():
    callers = {
        str(path.relative_to(SRC)): lines
        for path in sorted(SRC.rglob("*.py"))
        if (lines := network_send_calls(path.read_text()))
    }
    assert list(callers) == ["resilience/channel.py"], (
        f"Network.send called outside the reliable channel: {callers} — "
        "send through a ReliableChannel (ChannelConfig(reliable=False) is "
        "the fire-and-forget mode)"
    )
