"""The causal delivery gate: hold until deps delivered, bounded by a deadline.

One :class:`CausalBuffer` sits in front of each gated receiver (a
pubsub consumer, an edge session feed; see :mod:`repro.causal.stage`).  The
delivery rule for an update stamped with deps ``(k, v)``:

- a dep is **unmet** when ``k`` is in the receiver's key range, ``v``
  is above the receiver's *floor* (the snapshot/cursor version it
  resumed from — anything at or below was already observed), and the
  buffer has not yet delivered ``k`` at version ``>= v``;
- no unmet deps: deliver immediately and re-check held entries that
  were waiting on this key (cascading, in deterministic hold order);
- unmet deps: park the entry and arm a one-shot hold deadline.  If the
  deadline fires first, deliver anyway — causal order is traded for
  bounded staleness — and emit a ``causal.deadline`` trace naming the
  dependency it was still waiting for, so the violation is attributed
  loss provenance rather than a silent reorder.

Unstamped updates (``stamp=None``) pass straight through but still
advance the per-key watermark, so stamped updates can depend on them.

Determinism: hold ids are monotone ints, cascades process waiters in
hold order, and the only kernel interaction is the per-entry deadline
timer — armed only when an entry actually holds, so a causal buffer on
an in-order stream never perturbs the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.obs.trace import hops
from repro.sim.kernel import Simulation


#: bound on the parked population: past it, the *oldest* held entry is
#: force-released (same accounting as a deadline release), so a burst
#: of missing deps degrades to reordering, never to unbounded memory
MAX_HELD = 10_000


@dataclass(frozen=True)
class CausalBufferConfig:
    """Tuning for one delivery gate.

    ``hold_deadline`` bounds how long (sim seconds) an entry may wait
    for its dependencies; :data:`MAX_HELD` bounds the parked population.
    """

    hold_deadline: float = 0.25

    def __post_init__(self) -> None:
        if self.hold_deadline <= 0:
            raise ValueError("hold_deadline must be positive")


class _Held:
    __slots__ = ("hold_id", "key", "version", "target", "item", "unmet",
                 "held_at", "timer")

    def __init__(self, hold_id, key, version, target, item, unmet, held_at):
        self.hold_id = hold_id
        self.key = key
        self.version = version
        self.target = target
        self.item = item
        self.unmet = unmet  # set of (key, version) still missing
        self.held_at = held_at
        self.timer = None


class CausalBuffer:
    """Deterministic happens-before gate in front of one receiver."""

    __slots__ = (
        "sim", "name", "config", "_in_range", "_tracer", "_component",
        "floor", "applied", "_held", "_waiters", "_next_hold_id",
        "delivered", "held_total", "released_deps", "released_deadline",
        "released_overflow", "held_max_depth",
    )

    def __init__(
        self,
        sim: Simulation,
        config: Optional[CausalBufferConfig] = None,
        name: str = "causal",
        in_range: Optional[Callable[[str], bool]] = None,
        tracer=None,
        component: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.config = config or CausalBufferConfig()
        self._in_range = in_range
        self._tracer = tracer
        self._component = component or name
        self.floor = 0
        self.applied: Dict[str, int] = {}
        self._held: Dict[int, _Held] = {}
        self._waiters: Dict[str, List[int]] = {}
        self._next_hold_id = 0
        # counters (read by experiments and the conformance model)
        self.delivered = 0
        self.held_total = 0
        self.released_deps = 0
        self.released_deadline = 0
        self.released_overflow = 0
        self.held_max_depth = 0

    # ------------------------------------------------------------------
    # public surface

    @property
    def held_count(self) -> int:
        """Entries currently parked on unmet dependencies."""
        return len(self._held)

    def set_floor(self, version: int) -> None:
        """Raise the resume floor: deps at or below ``version`` count as
        already observed (snapshot served at V, cursor resumed from V)."""
        if version > self.floor:
            self.floor = version

    def submit(
        self,
        key: str,
        version: int,
        stamp,
        target: Callable[[Any], None],
        item: Any,
    ) -> bool:
        """Gate one delivery; returns True if it was delivered now.

        ``stamp`` is a :class:`~repro.causal.stamp.CausalStamp` or None
        (unstamped updates pass through).  ``target(item)`` runs exactly
        once — now, on dependency arrival, or at the hold deadline.
        """
        unmet = self._unmet(stamp)
        if not unmet:
            self._deliver(key, version, target, item)
            return True
        self._hold(key, version, target, item, unmet)
        return False

    def flush(self) -> int:
        """Force-release every held entry (deterministic hold order);
        returns how many were released.  Used at teardown so a drained
        run never strands deliveries."""
        released = 0
        for hold_id in sorted(self._held):
            entry = self._held.get(hold_id)
            if entry is not None:
                self._force_release(entry, cause="flush")
                released += 1
        return released

    def discard(self) -> None:
        """Drop every held entry undelivered, cancelling its deadline
        timer: the receiver crashed, or its feed resynced."""
        for entry in list(self._held.values()):
            self._remove(entry)
        self._waiters.clear()

    # ------------------------------------------------------------------
    # internals

    def _unmet(self, stamp) -> Set[Tuple[str, int]]:
        if stamp is None or not stamp.deps:
            return set()
        in_range = self._in_range
        floor = self.floor
        applied = self.applied
        return {
            (k, v)
            for k, v in stamp.deps
            if v > floor
            and (in_range is None or in_range(k))
            and applied.get(k, 0) < v
        }

    def _deliver(self, key: str, version: int, target, item) -> None:
        if version > self.applied.get(key, 0):
            self.applied[key] = version
        self.delivered += 1
        target(item)
        self._wake_waiters(key)

    def _hold(self, key, version, target, item, unmet) -> None:
        hold_id = self._next_hold_id
        self._next_hold_id += 1
        entry = _Held(hold_id, key, version, target, item, unmet, self.sim.now())
        self._held[hold_id] = entry
        for dep_key, _v in unmet:
            self._waiters.setdefault(dep_key, []).append(hold_id)
        self.held_total += 1
        if len(self._held) > self.held_max_depth:
            self.held_max_depth = len(self._held)
        entry.timer = self.sim.call_after(
            self.config.hold_deadline, lambda: self._on_deadline(hold_id)
        )
        if self._tracer is not None:
            self._tracer.record(
                hops.CAUSAL_HELD, self._component,
                key=key, version=version,
                n_unmet=len(unmet),
                waiting_for=self._waiting_label(unmet),
            )
        if len(self._held) > MAX_HELD:
            oldest = self._held[min(self._held)]
            self._force_release(oldest, cause="overflow")

    def _wake_waiters(self, key: str) -> None:
        # Iteratively release entries whose deps are now met; a released
        # entry's own key may satisfy further waiters, so loop until no
        # entry is releasable.  Hold order keeps the cascade
        # deterministic.
        pending = [key]
        while pending:
            dep_key = pending.pop(0)
            waiting = self._waiters.pop(dep_key, None)
            if not waiting:
                continue
            still_waiting: List[int] = []
            for hold_id in waiting:
                entry = self._held.get(hold_id)
                if entry is None:
                    continue
                applied = self.applied
                entry.unmet = {
                    (k, v) for k, v in entry.unmet
                    if v > self.floor and applied.get(k, 0) < v
                }
                if entry.unmet:
                    still_waiting.append(hold_id)
                    continue
                self._release(entry)
                pending.append(entry.key)
            if still_waiting:
                existing = self._waiters.setdefault(dep_key, [])
                existing.extend(
                    h for h in still_waiting if h in self._held
                )

    def _release(self, entry: _Held) -> None:
        self._remove(entry)
        self.released_deps += 1
        if self._tracer is not None:
            held_for = self.sim.now() - entry.held_at
            self._tracer.record(
                hops.CAUSAL_RELEASED, self._component,
                key=entry.key, version=entry.version,
                held_ms=round(held_for * 1000.0, 3),
            )
        if entry.version > self.applied.get(entry.key, 0):
            self.applied[entry.key] = entry.version
        self.delivered += 1
        entry.target(entry.item)

    def _on_deadline(self, hold_id: int) -> None:
        entry = self._held.get(hold_id)
        if entry is None:
            return
        self._force_release(entry, cause="deadline")

    def _force_release(self, entry: _Held, cause: str) -> None:
        self._remove(entry)
        if cause == "overflow":
            self.released_overflow += 1
        elif cause == "deadline":
            self.released_deadline += 1
        if self._tracer is not None and cause != "flush":
            held_for = self.sim.now() - entry.held_at
            self._tracer.record(
                hops.CAUSAL_DEADLINE, self._component,
                key=entry.key, version=entry.version,
                cause=cause,
                held_ms=round(held_for * 1000.0, 3),
                waiting_for=self._waiting_label(entry.unmet),
            )
        if entry.version > self.applied.get(entry.key, 0):
            self.applied[entry.key] = entry.version
        self.delivered += 1
        entry.target(entry.item)
        self._wake_waiters(entry.key)

    def _remove(self, entry: _Held) -> None:
        self._held.pop(entry.hold_id, None)
        if entry.timer is not None:
            entry.timer.cancel()
            entry.timer = None

    @staticmethod
    def _waiting_label(unmet) -> str:
        """Compact, deterministic attribution of the missing deps."""
        return ",".join(f"{k}:{v}" for k, v in sorted(unmet))
