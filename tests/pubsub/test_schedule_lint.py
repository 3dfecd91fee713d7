"""Lint: nothing under ``src/repro/pubsub`` or ``src/repro/resilience``
throws an event handle away.

``call_after``/``call_at``/``call_at_seq`` exist to return an
:class:`~repro.sim.kernel.EventHandle` — the cancel API — and allocate
one per call.  A call whose result is discarded paid for a handle nobody
can use; ``post`` schedules the same event, with the same seq, without
one.  The broker path used to discard a handle per delivery, per pump,
per publish wake and per consumer service, and ``Retrier`` one per
retry; this walks every pubsub and resilience module's AST (sibling of
``test_network_send_has_exactly_one_calling_module``) and fails on any
such call left.  The reliable channel goes further: its retransmit
clock arms alarms at reserved slots, so it makes no ``call_after`` or
``call_at`` call at all.
"""

import ast
from pathlib import Path
from typing import List

import repro

SRC = Path(repro.__file__).resolve().parent
PUBSUB = SRC / "pubsub"
RESILIENCE = SRC / "resilience"
_HANDLE_RETURNING = {"call_after", "call_at", "call_at_seq"}


def discarded_schedule_calls(source: str) -> List[int]:
    """Line numbers of a handle-returning scheduling call used as a bare
    expression statement (its handle discarded)."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr in _HANDLE_RETURNING
    )


def test_lint_tells_discarded_from_kept_handles():
    assert discarded_schedule_calls("self.sim.call_after(0.0, f)\n") == [1]
    assert discarded_schedule_calls("sim.call_at(t, f)\nx = 1\n") == [1]
    assert discarded_schedule_calls(
        "def f(sim):\n    sim.call_at_seq(t, seq, g)\n"
    ) == [2]
    assert discarded_schedule_calls(
        "self._watchdog = self.sim.call_at_seq(t, seq, f)\n"
        "handles.append(sim.call_after(1.0, f))\n"
        "return_value = sim.call_at(t, f)\n"
        "sim.post(0.0, f)\n"
    ) == []


def _offenders(package: Path):
    return {
        str(path.relative_to(package)): lines
        for path in sorted(package.rglob("*.py"))
        if (lines := discarded_schedule_calls(path.read_text()))
    }


def test_no_pubsub_module_discards_an_event_handle():
    offenders = _offenders(PUBSUB)
    assert not offenders, (
        f"scheduling handles discarded under repro/pubsub: {offenders} — "
        "use sim.post for an event nobody cancels"
    )


def test_no_resilience_module_discards_an_event_handle():
    offenders = _offenders(RESILIENCE)
    assert not offenders, (
        f"scheduling handles discarded under repro/resilience: {offenders} — "
        "use sim.post for an event nobody cancels"
    )


def test_reliable_channel_schedules_no_timer_per_frame():
    calls = sorted(
        node.func.attr
        for node in ast.walk(ast.parse((RESILIENCE / "channel.py").read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _HANDLE_RETURNING
    )
    # one call_at_seq: _arm, the retransmit clock's only kernel timer
    assert calls == ["call_at_seq"]
