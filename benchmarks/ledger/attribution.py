"""Per-layer attribution taken from outside the program.

Three passive instruments, each used in its own *traced* repetition so
its overhead never reaches an end-to-end number:

- :func:`layer_table` folds a ``cProfile`` run into the layer map
  (self time and call counts per ``src/repro`` package);
- :class:`KernelHook` sits on the public ``Simulation.profiler`` hook
  and charges host nanoseconds to kernel event components;
- :class:`GcWatch` times the collector through ``gc.callbacks``.

:class:`Spans` is the harness's own span recorder (name, start, end,
parent, repetition) that ends up in the trace artifact.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

HARNESS = "harness"

#: modules of ``repro.sim`` are layers of their own; the clock and the
#: timer wheel are part of the kernel's dispatch path
_SIM_MODULES = {
    "kernel": "sim.kernel", "timerwheel": "sim.kernel", "clock": "sim.kernel",
    "wire": "sim.wire", "network": "sim.network", "metrics": "sim.metrics",
}
#: packages that are layers under their own name
_PACKAGES = (
    "resilience", "transport", "storage", "cdc", "pubsub", "replication",
    "core", "edge", "obs", "workloads",
)
#: code with no layer of its own, charged to the one layer that reaches
#: it in these workloads: the shared value types (Mutation, KeyRange)
#: are the store's vocabulary, and the sharder is only ever entered
#: through ``edge.placement``
_FOLDED = {"_types": "storage", "sharding": "edge"}

LAYERS = tuple(sorted(set(_SIM_MODULES.values()))) + _PACKAGES + (HARNESS,)


class UnmappedModule(LookupError):
    """A ``src/repro`` file the layer map does not place."""


def layer_of(relative: str) -> str:
    """Layer of a path relative to ``src/repro`` (``pubsub/log.py``).

    Raises :class:`UnmappedModule` for anything the map does not name,
    so a new module cannot silently land in a catch-all.
    """
    parts = Path(relative).with_suffix("").parts
    head = parts[0]
    if head == "sim" and len(parts) == 2 and parts[1] in _SIM_MODULES:
        return _SIM_MODULES[parts[1]]
    if head in _PACKAGES:
        return head
    if head in _FOLDED:
        return _FOLDED[head]
    raise UnmappedModule(relative)


def layer_table(
    stats: Dict[tuple, tuple], src_root: Path, harness_root: Path
) -> Dict[str, Dict[str, float]]:
    """Fold ``cProfile.Profile.stats`` into ``{layer: {self_s, calls}}``.

    Functions defined under ``src/repro`` belong to their file's layer
    and functions of the harness to ``harness``.  Everything else —
    builtins, dataclass-generated ``__init__``s, the stdlib — has no
    layer of its own; its self time is charged to the layers of its
    callers in proportion to the time each caller spent in it (through
    as many foreign frames as it takes).  Only calls of functions
    *defined in* a layer count toward its ``calls``.
    """
    repro_root = str(src_root / "repro") + "/"
    harness_prefix = str(harness_root) + "/"

    def own_layer(func: tuple) -> Optional[str]:
        filename = func[0]
        if filename.startswith(repro_root):
            return layer_of(filename[len(repro_root):])
        if filename.startswith(harness_prefix):
            return HARNESS
        return None

    memo: Dict[tuple, Dict[str, float]] = {}

    def weights(func: tuple, seen: frozenset) -> Dict[str, float]:
        """Which layers a function's self time belongs to (sums to 1)."""
        cached = memo.get(func)
        if cached is not None:
            return cached
        layer = own_layer(func)
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = stats[func][4] if func in stats else {}
            total = sum(caller[2] for caller in callers.values())
            result = {}
            if total > 0 and func not in seen:
                for caller, (_nc, _cc, self_s, _ct) in callers.items():
                    share = self_s / total
                    for name, w in weights(caller, seen | {func}).items():
                        result[name] = result.get(name, 0.0) + share * w
            if not result:
                result = {HARNESS: 1.0}  # called from outside the profile
        memo[func] = result
        return result

    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for func, (_cc, ncalls, self_s, _ct, _callers) in stats.items():
        layer = own_layer(func)
        if layer is not None:
            table[layer]["calls"] += ncalls
        for name, w in weights(func, frozenset()).items():
            table[name]["self_s"] += self_s * w
    return table


class KernelHook:
    """Wall-clock profiler for ``Simulation.profiler``.

    ``on_event(component, t)`` fires before each event's callback, so
    the interval since the previous call is the host time the previous
    event's component took (dispatch included).
    """

    def __init__(self) -> None:
        self.events: Dict[str, int] = {}
        self.ns: Dict[str, int] = {}
        self.total_events = 0
        self._component: Optional[str] = None
        self._since = 0

    def on_event(self, component: str, _t: float) -> None:
        now = time.perf_counter_ns()
        previous = self._component
        if previous is not None:
            self.ns[previous] = self.ns.get(previous, 0) + now - self._since
        self.total_events += 1
        self.events[component] = self.events.get(component, 0) + 1
        self._component = component
        self._since = now

    def table(self) -> List[Dict[str, object]]:
        return [
            {"component": name, "events": count, "ns": self.ns.get(name, 0)}
            for name, count in sorted(self.events.items())
        ]


class GcWatch:
    """Times every collection between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.gen2 = 0
        self._began = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._began = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._began
            if info["generation"] == 2:
                self.gen2 += 1

    def start(self) -> None:
        gc.callbacks.append(self._callback)

    def stop(self) -> None:
        gc.callbacks.remove(self._callback)


class Spans:
    """In-memory span log: written out once, when the run ends."""

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self.repetition: Optional[str] = None

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, object]]:
        record: Dict[str, object] = {
            "id": len(self.records),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "repetition": self.repetition,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()
