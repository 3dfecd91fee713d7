"""StateCorruptor: arbitrary-state fault injection for E13.

Self-stabilization is defined over *arbitrary* initial states, not just
states reachable through the system's own failure modes — so the
injector mutates live component internals directly, the way bit-rot,
operator error, or a buggy migration would, without going through any
apply path:

``replica-map-tear``
    Live keys vanish from the :class:`~repro.replication.target.
    ReplicaStore` map (versions stay, so the store still *believes* it
    applied them — no event will ever re-deliver them).
``replica-cursor-rewind``
    Per-key cursors rewind and the values revert to stale garbage, as
    if an old backup was partially restored over the live map.
``replica-cursor-advance``
    Per-key cursors are forged *beyond the source head*: every future
    apply for the key raises :class:`~repro.replication.target.
    CursorCorruption` and the record is lost until repaired.
``edge-cursor-advance``
    A client's durable reconnect cursor is forged beyond the head and
    its session dropped: the reconnect delta-catches-up "from the
    future" and silently misses the gap.
``session-orphan``
    A live session detaches from its frontend (half-open): the client
    keeps a session object that no frontend feeds.
``assignment-stale``
    The sharder's installed assignment is replaced with a forged
    stale-generation map whose ownership is rotated by one node.

Every injection emits one ``corrupt.inject`` trace event carrying the
corruption class and the *scope* the reconcilers use, which is what
lets :meth:`~repro.obs.index.TraceIndex.repair_summary` attribute each
``reconcile.repair`` back to the corruption it fixed.

The corruptor only ever reads randomness from ``sim.rng``, so a seeded
chaos soak replays its injections exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro._types import KeyRange, Version
from repro.obs.trace import hops
from repro.replication.target import ReplicaStore, _item_hash
from repro.sim.kernel import Simulation
from repro.storage.kv import MVCCStore

#: every corruption class the injector knows, in injection-table order
CORRUPTION_CLASSES: Tuple[str, ...] = (
    "replica-map-tear",
    "replica-cursor-rewind",
    "replica-cursor-advance",
    "edge-cursor-advance",
    "session-orphan",
    "assignment-stale",
)

#: how far beyond the source head forged cursors land
_FORGE_MARGIN = 10_000


def shard_scopes(num_shards: int) -> List[Tuple[str, KeyRange]]:
    """Evenly split the a–z key alphabet into named reconcile scopes.

    Mirrors the sharder's even 1-char boundaries so scope names line up
    with how the workload generators spread keys."""
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    everything = KeyRange.all()
    bounds = [everything.low] + [
        chr(ord("a") + (i * 26) // num_shards) for i in range(1, num_shards)
    ]
    shards: List[Tuple[str, KeyRange]] = []
    for i, low in enumerate(bounds):
        high = bounds[i + 1] if i + 1 < len(bounds) else everything.high
        name = f"replica/{low or 'min'}-{high if i + 1 < len(bounds) else 'max'}"
        shards.append((name, KeyRange(low, high)))
    return shards


def scope_for_key(shards: Sequence[Tuple[str, KeyRange]], key: str) -> str:
    for name, key_range in shards:
        if key_range.contains(key):
            return name
    raise KeyError(key)  # shards partition the whole keyspace


#: keys one replica-divergence injection corrupts
KEYS_PER_INJECTION = 3


class StateCorruptor:
    """Mutates live state; each class returns how many faults landed."""

    def __init__(
        self,
        sim: Simulation,
        tracer=None,
        source: Optional[MVCCStore] = None,
        replica: Optional[ReplicaStore] = None,
        shards: Optional[Sequence[Tuple[str, KeyRange]]] = None,
        clients: Optional[Sequence] = None,   # EdgeClient
        frontends: Optional[Sequence] = None,  # edge frontends
        sharder=None,                          # AutoSharder
    ) -> None:
        self.sim = sim
        self.tracer = tracer
        self.source = source
        self.replica = replica
        self.shards = list(shards or [])
        self.clients = list(clients or [])
        self.frontends = list(frontends or [])
        self.sharder = sharder
        self.injections = 0
        self.by_class: Dict[str, int] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    # dispatch

    def inject(self, cls: str) -> int:
        """Inject one instance of corruption class ``cls``; returns the
        number of faults that actually landed (0 = no eligible target)."""
        handler = {
            "replica-map-tear": self._tear_map,
            "replica-cursor-rewind": self._rewind_cursors,
            "replica-cursor-advance": self._advance_cursors,
            "edge-cursor-advance": self._forge_edge_cursor,
            "session-orphan": self._orphan_session,
            "assignment-stale": self._forge_assignment,
        }[cls]
        return handler(cls)

    def _record(self, cls: str, scope: str, **attrs) -> None:
        self.injections += 1
        self.by_class[cls] = self.by_class.get(cls, 0) + 1
        self._next_id += 1
        if self.tracer is not None:
            self.tracer.record(
                hops.CORRUPT_INJECT, "corruptor",
                cls=cls, scope=scope, corruption_id=self._next_id, **attrs,
            )

    # ------------------------------------------------------------------
    # replica-side classes (require source/replica/shards)

    def _pick_replica_keys(self) -> List[str]:
        live = sorted(self.replica.items())
        if not live:
            return []
        count = min(KEYS_PER_INJECTION, len(live))
        return sorted(self.sim.rng.sample(live, count))

    def _tear_map(self, cls: str) -> int:
        """Delete live keys from the replica map, fingerprint-consistent
        with the torn state (the store has no idea anything happened)."""
        keys = self._pick_replica_keys()
        state = self.replica._state
        for key in keys:
            old = state.pop(key)
            self.replica._fingerprint ^= _item_hash(key, old)
            self._record(cls, scope_for_key(self.shards, key), key=key)
        return len(keys)

    def _rewind_cursors(self, cls: str) -> int:
        """Rewind per-key cursors and revert values to stale garbage —
        a partial restore of an old backup over the live map."""
        keys = self._pick_replica_keys()
        state = self.replica._state
        versions = self.replica._versions
        for key in keys:
            old = state[key]
            stale = {"stale": versions.get(key, 0)}
            self.replica._fingerprint ^= _item_hash(key, old)
            self.replica._fingerprint ^= _item_hash(key, stale)
            state[key] = stale
            versions[key] = max(0, versions.get(key, 0) - 7)
            self._record(cls, scope_for_key(self.shards, key), key=key)
        return len(keys)

    def _advance_cursors(self, cls: str) -> int:
        """Forge per-key cursors beyond the source head: future applies
        for the key raise CursorCorruption and are lost until repaired."""
        keys = self._pick_replica_keys()
        head: Version = self.source.last_version
        versions = self.replica._versions
        for key in keys:
            versions[key] = head + _FORGE_MARGIN
            self._record(cls, scope_for_key(self.shards, key), key=key)
        return len(keys)

    # ------------------------------------------------------------------
    # edge-side classes (require clients/frontends)

    def _forge_edge_cursor(self, cls: str) -> int:
        """Forge a client's durable reconnect cursor beyond the head and
        drop its session: the reconnect silently misses the gap."""
        candidates = [c for c in self.clients if not c.stopped]
        if not candidates or self.source is None:
            return 0
        client = self.sim.rng.choice(candidates)
        client.cursor = self.source.last_version + _FORGE_MARGIN
        self._record(cls, f"edge/{client.name}", client=client.name)
        if client.session is not None:
            client.session.close("corrupted")
        return 1

    def _orphan_session(self, cls: str) -> int:
        """Detach a live session from its frontend without closing it:
        the client keeps waiting on a half-open session forever."""
        candidates = [
            client for client in self.clients
            if client.session is not None and client.session.active
        ]
        if not candidates:
            return 0
        client = self.sim.rng.choice(candidates)
        session = client.session
        for frontend in self.frontends:
            if frontend.sessions.get(client.name) is session:
                del frontend.sessions[client.name]
        handle = getattr(session, "_feed_handle", None)
        if handle is not None and handle.active:
            handle.cancel()
        session._feed_handle = None
        self._record(cls, f"edge/{client.name}", client=client.name)
        return 1

    # ------------------------------------------------------------------
    # placement class (requires sharder)

    def _forge_assignment(self, cls: str) -> int:
        """Install a forged stale-generation assignment with ownership
        rotated by one node, behind the sharder's back."""
        from repro.sharding.assignment import Assignment, Slice

        if self.sharder is None:
            return 0
        current = self.sharder.assignment
        nodes = sorted({s.node for s in current.slices})
        if len(nodes) < 2:
            return 0
        rotate = {
            node: nodes[(i + 1) % len(nodes)] for i, node in enumerate(nodes)
        }
        # a generation stamp the sharder's own counter never issued:
        # one behind when possible (a resurrected old map), else one
        # ahead — relative to the counter, so a second forge on an
        # already-forged map cannot accidentally restore consistency
        expected = self.sharder.generation
        generation = expected - 1 if expected > 0 else expected + 1
        forged = Assignment(
            generation,
            [Slice(s.key_range, rotate[s.node]) for s in current.slices],
        )
        self.sharder._assignment = forged
        self._record(cls, "placement", generation=forged.generation)
        return 1
