"""Cache cluster: routing, probing, and the staleness audit.

The cluster routes client reads to the authoritative owner (per the
sharder's current assignment — real routing layers converge fast; the
interesting lag is inside the invalidation pipelines, not here).

Two measurement tools used by experiment E3:

- :class:`Prober` — a background process issuing reads and comparing
  against the store, tallying fresh/stale/unavailable/miss outcomes;
- :meth:`CacheCluster.audit_staleness` — at quiescence, counts cached
  entries that are older than the store's current value.  With no TTL
  and no further traffic these are *permanently* stale: the
  undetectable end state of a missed invalidation (§3.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro._types import Key
from repro.sharding.autosharder import AutoSharder
from repro.sim.kernel import Simulation, Timeout
from repro.storage.kv import MVCCStore


@dataclass
class ProbeStats:
    """Tallies from a probing client."""

    fresh: int = 0
    stale: int = 0
    miss: int = 0
    unavailable: int = 0
    stale_keys: set = field(default_factory=set)

    @property
    def total(self) -> int:
        return self.fresh + self.stale + self.miss + self.unavailable

    @property
    def stale_fraction(self) -> float:
        served = self.fresh + self.stale
        return self.stale / served if served else 0.0

    @property
    def unavailable_fraction(self) -> float:
        return self.unavailable / self.total if self.total else 0.0


class CacheCluster:
    """Routes reads to the current owner node."""

    def __init__(
        self,
        sim: Simulation,
        sharder: AutoSharder,
        nodes: Sequence,  # objects with serve()/peek()/owns()
        store: MVCCStore,
    ) -> None:
        self.sim = sim
        self.sharder = sharder
        self.nodes = {node.name: node for node in nodes}
        self.store = store

    def read(self, key: Key) -> Tuple[str, Optional[Any], str]:
        """(status, value, node_name) for a client read of ``key``."""
        owner = self.sharder.assignment.owner_of(key)
        node = self.nodes.get(owner)
        if node is None:
            return ("unavailable", None, owner)
        status, value = node.serve(key)
        return (status, value, owner)

    # ------------------------------------------------------------------
    # audits

    def audit_staleness(self, keys: Optional[Sequence[Key]] = None) -> Dict[str, int]:
        """Count cached-but-outdated entries per node at this instant.

        An entry is stale when its version is below the version of the
        store's current value for that key.  Run this after traffic has
        quiesced: anything still stale then will never be fixed except
        by TTL or luck.
        """
        if keys is None:
            keys = self.store.keys()
        stale_per_node: Dict[str, int] = {name: 0 for name in self.nodes}
        for key in keys:
            current = self.store.get_versioned(key)
            for name, node in self.nodes.items():
                entry = node.peek(key)
                if entry is None:
                    continue
                if current is None:
                    # key deleted at the store but still cached
                    stale_per_node[name] += 1
                elif entry.version < current[0] and entry.value != current[1]:
                    stale_per_node[name] += 1
        return stale_per_node

    def total_stale(self, keys: Optional[Sequence[Key]] = None) -> int:
        return sum(self.audit_staleness(keys).values())


class Prober:
    """Background read traffic with freshness checking."""

    def __init__(
        self,
        sim: Simulation,
        cluster: CacheCluster,
        keys: Sequence[Key],
        rate: float = 100.0,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.cluster = cluster
        self.keys = list(keys)
        self.interval = 1.0 / rate
        self.stats = ProbeStats()
        self._stopped = False

    def start(self) -> None:
        self.sim.spawn(self._run(), name="prober")

    def stop(self) -> None:
        self._stopped = True

    def _run(self):
        while not self._stopped:
            key = self.keys[self.sim.rng.randrange(len(self.keys))]
            status, value, _node = self.cluster.read(key)
            if status == "hit":
                expected = self.cluster.store.get(key)
                if value == expected:
                    self.stats.fresh += 1
                else:
                    self.stats.stale += 1
                    self.stats.stale_keys.add(key)
            elif status == "miss":
                self.stats.miss += 1
            else:
                self.stats.unavailable += 1
            yield Timeout(self.interval)
