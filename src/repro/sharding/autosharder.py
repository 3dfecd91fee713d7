"""The auto-sharder: dynamic range reassignment.

Modeled on Slicer (Adya et al., OSDI '16): nodes register, load is
reported per key, and ranges move when a caller scripts it
(:meth:`AutoSharder.move_key`, :meth:`~AutoSharder.split_at`, membership
changes); a joining node takes the slice with the most recorded load.
No policy picks moves on its own: Figure 2's race needs reassignment
while consumers lag, not a rebalancing loop.  Every change produces a
new generation-stamped :class:`~repro.sharding.assignment.Assignment`.

Listeners (cache nodes, workers, lease managers) are notified with a
configurable *per-listener* latency.  That propagation delay is not a
modeling convenience — it is the mechanism of Figure 2: the new owner
of a key can learn about its reassignment and act on it before (or
after) other components do, and nothing synchronizes those views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro._types import Key, KeyRange
from repro.sharding.assignment import Assignment, Slice
from repro.sim.kernel import Simulation

AssignmentListener = Callable[[Assignment], None]


@dataclass
class AutoSharderConfig:
    """Notification behaviour."""

    #: Latency with which listeners learn about a new assignment.
    notify_latency: float = 0.05
    notify_jitter: float = 0.05


class AutoSharder:
    """Generation-stamped dynamic assignment of key ranges to nodes."""

    def __init__(
        self,
        sim: Simulation,
        nodes: List[str],
        config: Optional[AutoSharderConfig] = None,
    ) -> None:
        if not nodes:
            raise ValueError("need at least one node")
        self.sim = sim
        self.config = config or AutoSharderConfig()
        self._nodes: List[str] = list(dict.fromkeys(nodes))
        self._generation = 0
        self._assignment = self._initial_assignment()
        self._listeners: List[AssignmentListener] = []
        #: load per slice index of the current assignment
        self._slice_loads: Dict[int, float] = {}

    def _initial_assignment(self) -> Assignment:
        # even 1-char boundaries over the node count, round-robin
        n = len(self._nodes)
        boundaries = []
        if n > 1:
            span = 26
            boundaries = [chr(ord("a") + (i * span) // n) for i in range(1, n)]
        return Assignment.even(self._nodes, boundaries, generation=0)

    # ------------------------------------------------------------------
    # observation

    @property
    def assignment(self) -> Assignment:
        """The current (authoritative) assignment."""
        return self._assignment

    @property
    def generation(self) -> int:
        """The generation counter the next install will exceed.

        Legally ``assignment.generation == generation`` at all times; a
        mismatch means the installed assignment was forged/replaced
        behind the sharder's back (the corruption the reconciliation
        plane detects)."""
        return self._generation

    def subscribe(self, listener: AssignmentListener, immediate: bool = True) -> Callable[[], None]:
        """Register a listener; it is notified (with latency) of every
        future assignment, and of the current one when ``immediate``."""
        self._listeners.append(listener)
        if immediate:
            self._notify_one(listener, self._assignment)

        def cancel() -> None:
            if listener in self._listeners:
                self._listeners.remove(listener)

        return cancel

    def record_load(self, key: Key, weight: float = 1.0) -> None:
        """Report one unit of load against the slice owning ``key``."""
        idx = self._slice_index(key)
        self._slice_loads[idx] = self._slice_loads.get(idx, 0.0) + weight

    def _slice_index(self, key: Key) -> int:
        s = self._assignment.slice_for(key)
        return self._assignment.slices.index(s)

    # ------------------------------------------------------------------
    # membership

    def add_node(self, node: str) -> None:
        """Join a node; it takes over the slice with the most recorded
        load (the first slice when none has any)."""
        if node in self._nodes:
            return
        self._nodes.append(node)
        self._steal_for(node)

    def remove_node(self, node: str) -> None:
        """Remove a node (failure or drain); its ranges move now."""
        if node not in self._nodes:
            return
        if len(self._nodes) == 1:
            raise ValueError("cannot remove the last node")
        self._nodes.remove(node)
        slices = []
        rr = 0
        for s in self._assignment.slices:
            if s.node == node:
                slices.append(Slice(s.key_range, self._nodes[rr % len(self._nodes)]))
                rr += 1
            else:
                slices.append(s)
        self._install(slices)

    def _steal_for(self, node: str) -> None:
        # give the newcomer the hottest slice
        donor_slices = list(enumerate(self._assignment.slices))
        if not donor_slices:
            return
        idx, victim = max(
            donor_slices, key=lambda pair: self._slice_loads.get(pair[0], 0.0)
        )
        slices = list(self._assignment.slices)
        slices[idx] = Slice(victim.key_range, node)
        self._install(slices)

    # ------------------------------------------------------------------
    # direct control (experiments script handoffs deterministically)

    def move_key(self, key: Key, to_node: str) -> KeyRange:
        """Reassign the slice containing ``key`` to ``to_node``; returns
        the moved range."""
        if to_node not in self._nodes:
            self._nodes.append(to_node)
        slices = list(self._assignment.slices)
        for idx, s in enumerate(slices):
            if s.key_range.contains(key):
                slices[idx] = Slice(s.key_range, to_node)
                self._install(slices)
                return s.key_range
        raise KeyError(key)  # pragma: no cover - assignments are complete

    def split_at(self, boundary: Key) -> None:
        """Split the slice containing ``boundary`` at it (no-op when the
        boundary already exists)."""
        slices = []
        changed = False
        for s in self._assignment.slices:
            if s.key_range.contains(boundary) and s.key_range.low != boundary:
                slices.append(Slice(KeyRange(s.key_range.low, boundary), s.node))
                slices.append(Slice(KeyRange(boundary, s.key_range.high), s.node))
                changed = True
            else:
                slices.append(s)
        if changed:
            self._install(slices)

    def reinstall(self) -> Assignment:
        """Re-stamp the currently installed slices as a fresh generation
        and notify every listener (the repair for a forged/stale
        assignment: whatever map is installed becomes the authoritative
        truth again, and listeners re-converge on it)."""
        self._install(list(self._assignment.slices))
        return self._assignment

    # ------------------------------------------------------------------
    # installation & notification

    def _install(self, slices: List[Slice]) -> None:
        self._generation += 1
        old = self._assignment
        self._assignment = Assignment(self._generation, slices)
        # remap load bookkeeping to new slice indices by range midpoints
        new_loads: Dict[int, float] = {}
        for old_idx, old_slice in enumerate(old.slices):
            load = self._slice_loads.get(old_idx, 0.0)
            for new_idx, new_slice in enumerate(self._assignment.slices):
                if new_slice.key_range.overlaps(old_slice.key_range):
                    new_loads[new_idx] = new_loads.get(new_idx, 0.0) + load
                    break  # attribute to first overlap only
        self._slice_loads = new_loads
        for listener in list(self._listeners):
            self._notify_one(listener, self._assignment)

    def _notify_one(self, listener: AssignmentListener, assignment: Assignment) -> None:
        delay = self.config.notify_latency
        if self.config.notify_jitter > 0:
            delay += self.sim.rng.random() * self.config.notify_jitter
        self.sim.call_after(delay, lambda: listener(assignment))
