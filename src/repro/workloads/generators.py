"""Workload generators.

All randomness flows through the simulation's seeded RNG, so every
experiment is replayable.  Keys are lowercase-prefixed strings, which
keeps them compatible with the auto-sharder's initial alphabet split
and the even-range helpers.
"""

from __future__ import annotations

import string
from typing import Callable, List, Optional, Sequence, Tuple

from repro._types import Key, Mutation
from repro.sim.kernel import Simulation, Timeout
from repro.storage.kv import MVCCStore
from repro.workqueue.tasks import Task


def key_universe(n: int, prefix: str = "") -> List[Key]:
    """``n`` distinct keys spread evenly over the a-z alphabet so they
    shard evenly: 'a0000', 'b0001', ..."""
    letters = string.ascii_lowercase
    return [f"{prefix}{letters[i % 26]}{i:05d}" for i in range(n)]


class UniformKeys:
    """Uniform key picker over a universe."""

    def __init__(self, sim: Simulation, keys: Sequence[Key]) -> None:
        if not keys:
            raise ValueError("empty key universe")
        self.sim = sim
        self.keys = list(keys)

    def pick(self) -> Key:
        return self.keys[self.sim.rng.randrange(len(self.keys))]


class ZipfKeys:
    """Zipf-ish skewed picker: rank r chosen ∝ 1/r^s (precomputed CDF)."""

    def __init__(self, sim: Simulation, keys: Sequence[Key], s: float = 1.1) -> None:
        if not keys:
            raise ValueError("empty key universe")
        if s <= 0:
            raise ValueError("s must be positive")
        self.sim = sim
        self.keys = list(keys)
        weights = [1.0 / (rank ** s) for rank in range(1, len(keys) + 1)]
        total = sum(weights)
        acc = 0.0
        self._cdf: List[float] = []
        for w in weights:
            acc += w / total
            self._cdf.append(acc)

    def pick(self) -> Key:
        import bisect

        u = self.sim.rng.random()
        return self.keys[min(bisect.bisect_left(self._cdf, u), len(self.keys) - 1)]


class WriteStream:
    """A process writing single-key updates at a fixed rate."""

    def __init__(
        self,
        sim: Simulation,
        store: MVCCStore,
        picker,  # UniformKeys | ZipfKeys
        rate: float,
        value_fn: Optional[Callable[[int], object]] = None,
        delete_fraction: float = 0.0,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if not 0.0 <= delete_fraction < 1.0:
            raise ValueError("delete_fraction must be in [0, 1)")
        self.sim = sim
        self.store = store
        self.picker = picker
        self.interval = 1.0 / rate
        self.value_fn = value_fn or (lambda n: n)
        self.delete_fraction = delete_fraction
        self.writes = 0
        self._stopped = False

    def start(self) -> None:
        self.sim.spawn(self._run(), name="write-stream")

    def stop(self) -> None:
        self._stopped = True

    def _run(self):
        n = 0
        while not self._stopped:
            key = self.picker.pick()
            if self.delete_fraction > 0 and self.sim.rng.random() < self.delete_fraction:
                if self.store.exists(key):
                    self.store.delete(key)
                else:
                    self.store.put(key, self.value_fn(n))
            else:
                self.store.put(key, self.value_fn(n))
            self.writes += 1
            n += 1
            yield Timeout(self.interval)


class AclWorkload:
    """The §3.2.1 anomaly workload: member/access exclusion pairs.

    For each pair i the store holds ``gNNN/member`` (1 when the member
    is in the group) and ``gNNN/access`` (1 when the group can reach
    the document).  The driver cycles each pair through

        (member=1, access=0) -> remove member -> grant access
        -> revoke access -> re-add member -> ...

    as *separate transactions in that order*, so no committed source
    state ever has member=1 ∧ access=1.  A filler update stream runs
    alongside so appliers have concurrent unrelated traffic.
    """

    def __init__(
        self,
        sim: Simulation,
        store: MVCCStore,
        num_pairs: int = 20,
        cycle_rate: float = 10.0,
        filler_keys: int = 200,
        filler_rate: float = 200.0,
        filler_zipf: Optional[float] = None,
        filler_delete_fraction: float = 0.0,
    ) -> None:
        if num_pairs < 1:
            raise ValueError("num_pairs must be >= 1")
        self.sim = sim
        self.store = store
        self.pairs: List[Tuple[Key, Key]] = [
            (f"g{i:04d}/member", f"g{i:04d}/access") for i in range(num_pairs)
        ]
        self.cycle_interval = 1.0 / cycle_rate
        # filler keys spread over the whole alphabet so range-partitioned
        # pipelines see balanced load (their first char varies); shuffled
        # so zipf-hot ranks don't cluster in one range
        filler_universe = key_universe(filler_keys)
        sim.rng.shuffle(filler_universe)
        picker = (
            ZipfKeys(sim, filler_universe, s=filler_zipf)
            if filler_zipf is not None
            else UniformKeys(sim, filler_universe)
        )
        self.filler = WriteStream(
            sim,
            store,
            picker,
            rate=filler_rate,
            delete_fraction=filler_delete_fraction,
        )
        self.transitions = 0
        self._stopped = False

    def initialize(self) -> None:
        """Seed every pair at (member=1, access=0)."""
        for member_key, access_key in self.pairs:
            self.store.commit(
                {member_key: Mutation.put(1), access_key: Mutation.put(0)}
            )

    def start(self) -> None:
        self.initialize()
        self.filler.start()
        self.sim.spawn(self._run(), name="acl-workload")

    def stop(self) -> None:
        self._stopped = True
        self.filler.stop()

    def _run(self):
        # per-pair phase: 0 remove member, 1 grant, 2 revoke, 3 re-add
        phases = [0] * len(self.pairs)
        while not self._stopped:
            idx = self.sim.rng.randrange(len(self.pairs))
            member_key, access_key = self.pairs[idx]
            phase = phases[idx]
            if phase == 0:
                self.store.put(member_key, 0)
            elif phase == 1:
                self.store.put(access_key, 1)
            elif phase == 2:
                self.store.put(access_key, 0)
            else:
                self.store.put(member_key, 1)
            phases[idx] = (phase + 1) % 4
            self.transitions += 1
            yield Timeout(self.cycle_interval)


class TaskStream:
    """A process submitting keyed tasks to a worker pool.

    ``poison_fraction`` of tasks carry ``poison_work`` (the §3.2.3/§4.3
    head-of-line hazard); the rest carry ``work``.  ``locality`` > 0
    makes consecutive tasks reuse recent keys (affinity opportunity).
    """

    def __init__(
        self,
        sim: Simulation,
        submit: Callable[[Task], None],
        keys: Sequence[Key],
        rate: float,
        work: float = 0.005,
        poison_fraction: float = 0.0,
        poison_work: float = 2.0,
        locality: float = 0.6,
        total: Optional[int] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.submit = submit
        self.keys = list(keys)
        self.interval = 1.0 / rate
        self.work = work
        self.poison_fraction = poison_fraction
        self.poison_work = poison_work
        self.locality = locality
        self.total = total
        self.submitted = 0
        self._recent: List[Key] = []
        self._stopped = False

    def start(self) -> None:
        self.sim.spawn(self._run(), name="task-stream")

    def stop(self) -> None:
        self._stopped = True

    def _pick_key(self) -> Key:
        if self._recent and self.sim.rng.random() < self.locality:
            return self._recent[self.sim.rng.randrange(len(self._recent))]
        key = self.keys[self.sim.rng.randrange(len(self.keys))]
        self._recent.append(key)
        if len(self._recent) > 32:
            self._recent.pop(0)
        return key

    def _run(self):
        task_id = 0
        while not self._stopped and (self.total is None or self.submitted < self.total):
            poison = (
                self.poison_fraction > 0
                and self.sim.rng.random() < self.poison_fraction
            )
            task = Task(
                task_id=task_id,
                key=self._pick_key(),
                work=self.poison_work if poison else self.work,
                enqueued_at=self.sim.now(),
                poison=poison,
            )
            self.submit(task)
            self.submitted += 1
            task_id += 1
            yield Timeout(self.interval)
