"""The auto-sharder: load- and health-driven range reassignment.

Modeled on Slicer (Adya et al., OSDI '16): nodes register, load is
reported per key, and the sharder periodically rebalances by moving
(and, when hot, splitting) ranges from overloaded to underloaded nodes.
Every change produces a new generation-stamped
:class:`~repro.sharding.assignment.Assignment`.

Listeners (cache nodes, workers, lease managers) are notified with a
configurable *per-listener* latency.  That propagation delay is not a
modeling convenience — it is the mechanism of Figure 2: the new owner
of a key can learn about its reassignment and act on it before (or
after) other components do, and nothing synchronizes those views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro._types import KEY_MAX, KEY_MIN, Key, KeyRange
from repro.sharding.assignment import Assignment, Slice
from repro.sim.kernel import Simulation
from repro.sim.metrics import MetricsRegistry

AssignmentListener = Callable[[Assignment], None]


@dataclass
class AutoSharderConfig:
    """Rebalancing behaviour."""

    rebalance_interval: float = 5.0
    #: Trigger rebalance when max node load exceeds mean by this factor.
    imbalance_ratio: float = 1.5
    #: Exponential decay applied to slice loads each interval.
    load_decay: float = 0.5
    #: Split a slice when it alone carries more than this fraction of
    #: the mean node load (and we are under max_slices).
    split_fraction: float = 0.8
    max_slices: int = 64
    #: Latency with which listeners learn about a new assignment.
    notify_latency: float = 0.05
    notify_jitter: float = 0.05

    def __post_init__(self) -> None:
        if self.rebalance_interval <= 0:
            raise ValueError("rebalance_interval must be positive")
        if self.imbalance_ratio < 1.0:
            raise ValueError("imbalance_ratio must be >= 1")
        if not 0.0 <= self.load_decay <= 1.0:
            raise ValueError("load_decay must be in [0, 1]")
        if self.max_slices < 1:
            raise ValueError("max_slices must be >= 1")


class AutoSharder:
    """Generation-stamped dynamic assignment of key ranges to nodes."""

    def __init__(
        self,
        sim: Simulation,
        nodes: List[str],
        config: Optional[AutoSharderConfig] = None,
        auto_rebalance: bool = True,
    ) -> None:
        if not nodes:
            raise ValueError("need at least one node")
        self.sim = sim
        self.config = config or AutoSharderConfig()
        self.metrics = MetricsRegistry()
        self._nodes: List[str] = list(dict.fromkeys(nodes))
        self._generation = 0
        self._assignment = self._initial_assignment()
        self._listeners: List[AssignmentListener] = []
        #: load per slice index of the current assignment
        self._slice_loads: Dict[int, float] = {}
        #: recent keys per slice (split-point estimation)
        self._slice_keys: Dict[int, List[Key]] = {}
        self.reassignments = 0
        self.splits = 0
        if auto_rebalance:
            sim.call_after(self.config.rebalance_interval, self._rebalance_tick)

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
        samples = self._slice_keys.setdefault(idx, [])
        if len(samples) < 64:
            samples.append(key)
        else:
            pos = self.sim.rng.randrange(128)
            if pos < 64:
                samples[pos] = key

    def _slice_index(self, key: Key) -> int:
        s = self._assignment.slice_for(key)
        return self._assignment.slices.index(s)

    # ------------------------------------------------------------------
    # membership

    def add_node(self, node: str) -> None:
        """Join a node; it receives ranges at the next rebalance (or
        immediately steals the largest slice when idle)."""
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
        # give the newcomer the hottest (or widest) slice of the most
        # loaded node
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
    # rebalancing

    def _rebalance_tick(self) -> None:
        self.rebalance_once()
        for idx in list(self._slice_loads):
            self._slice_loads[idx] *= self.config.load_decay
        self.sim.call_after(self.config.rebalance_interval, self._rebalance_tick)

    def rebalance_once(self) -> bool:
        """One rebalance pass; returns True if the assignment changed."""
        node_loads: Dict[str, float] = {node: 0.0 for node in self._nodes}
        for idx, s in enumerate(self._assignment.slices):
            node_loads[s.node] = node_loads.get(s.node, 0.0) + self._slice_loads.get(idx, 0.0)
        if not node_loads:
            return False
        mean = sum(node_loads.values()) / len(node_loads)
        if mean <= 0:
            return False
        hottest = max(node_loads, key=lambda n: node_loads[n])
        coolest = min(node_loads, key=lambda n: node_loads[n])
        if node_loads[hottest] <= self.config.imbalance_ratio * mean:
            return False
        # candidate: the hottest slice on the hottest node
        candidates = [
            (self._slice_loads.get(idx, 0.0), idx)
            for idx, s in enumerate(self._assignment.slices)
            if s.node == hottest
        ]
        if not candidates:
            return False
        load, idx = max(candidates)
        victim = self._assignment.slices[idx]
        if (
            load > self.config.split_fraction * mean
            and len(self._assignment.slices) < self.config.max_slices
        ):
            boundary = self._split_point(idx, victim.key_range)
            if boundary is not None:
                slices = list(self._assignment.slices)
                slices[idx : idx + 1] = [
                    Slice(KeyRange(victim.key_range.low, boundary), victim.node),
                    Slice(KeyRange(boundary, victim.key_range.high), coolest),
                ]
                self.splits += 1
                self._install(slices)
                return True
        slices = list(self._assignment.slices)
        slices[idx] = Slice(victim.key_range, coolest)
        self._install(slices)
        return True

    def _split_point(self, idx: int, key_range: KeyRange) -> Optional[Key]:
        samples = sorted(
            k for k in self._slice_keys.get(idx, ()) if key_range.contains(k)
        )
        if len(samples) < 2:
            return None
        boundary = samples[len(samples) // 2]
        if boundary <= key_range.low or boundary >= key_range.high:
            return None
        return boundary

    # ------------------------------------------------------------------
    # installation & notification

    def _install(self, slices: List[Slice]) -> None:
        self._generation += 1
        old = self._assignment
        self._assignment = Assignment(self._generation, slices)
        # remap load bookkeeping to new slice indices by range midpoints
        new_loads: Dict[int, float] = {}
        new_keys: Dict[int, List[Key]] = {}
        for old_idx, old_slice in enumerate(old.slices):
            load = self._slice_loads.get(old_idx, 0.0)
            keys = self._slice_keys.get(old_idx, [])
            for new_idx, new_slice in enumerate(self._assignment.slices):
                if new_slice.key_range.overlaps(old_slice.key_range):
                    new_loads[new_idx] = new_loads.get(new_idx, 0.0) + load
                    new_keys.setdefault(new_idx, []).extend(
                        k for k in keys if new_slice.key_range.contains(k)
                    )
                    load = 0.0  # attribute to first overlap only
                    break
        self._slice_loads = new_loads
        self._slice_keys = {i: keys[:64] for i, keys in new_keys.items()}
        self.reassignments += 1
        self.metrics.counter("sharder.reassignments").inc()
        for listener in list(self._listeners):
            self._notify_one(listener, self._assignment)

    def _notify_one(self, listener: AssignmentListener, assignment: Assignment) -> None:
        delay = self.config.notify_latency
        if self.config.notify_jitter > 0:
            delay += self.sim.rng.random() * self.config.notify_jitter
        self.sim.call_after(delay, lambda: listener(assignment))
