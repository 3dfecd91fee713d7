"""Causal stamps: compact dependency metadata minted at commit time.

A :class:`CausalStamp` names the commits an update happened after: the
stamper keeps a bounded window of the most recent ``(key, version)``
commit pairs and snapshots it as the dependency list of every write in
the next commit.  The window is the compactness/coverage dial — wide
enough to cover the writer's read-modify-write spans (the E3 pattern is
depth 1), narrow enough that the metadata stays a few dozen bytes.

Why a window of pairs and not a single happens-before chain: receivers
filter by key range.  With chain deps (each commit pointing only at its
predecessor), a chain that passes through an out-of-range key unlinks
two in-range updates — the receiver can't know B depends on A if the
only edge goes B -> C -> A and C is invisible to it.  Listing recent
pairs keeps every direct edge inside the window visible to any filter.

Stamps cross the wire (CDC payloads, relay event frames), so the class
registers with :mod:`repro.sim.wire`; its encoded size is what E16
reports as metadata bytes/msg.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.sim import wire

DepList = Tuple[Tuple[str, int], ...]


class CausalStamp:
    """Dependency metadata for one key write of one commit.

    ``version`` is the commit version of the stamped write itself;
    ``deps`` is the happens-before evidence: the ``(key, version)``
    pairs of the most recent prior commits, oldest first.  Writes of
    the same transaction share one dep list (they are concurrent with
    each other, ordered only by the commit version).
    """

    __slots__ = ("version", "deps")

    def __init__(self, version: int, deps: DepList = ()) -> None:
        self.version = version
        self.deps = tuple(tuple(dep) for dep in deps)

    def wire_bytes(self) -> int:
        """Encoded size on the wire — the metadata overhead of causal
        mode, per message."""
        return wire.wire_size(self)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CausalStamp)
            and self.version == other.version
            and self.deps == other.deps
        )

    def __hash__(self) -> int:
        return hash((self.version, self.deps))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CausalStamp(v{self.version}, deps={list(self.deps)})"


wire.register(CausalStamp, "causal.Stamp", ("version", "deps"))


class StampIndex:
    """``(key, version) -> CausalStamp`` lookup.

    The producer side records stamps as the stamper mints them; publish
    paths (CDC payloads, relay frames) look stamps up to ship them
    in-band, and receivers that got stamps over the wire record them
    into a local index for their delivery buffers to read.
    """

    __slots__ = ("_stamps",)

    def __init__(self) -> None:
        self._stamps: Dict[Tuple[str, int], CausalStamp] = {}

    def record(self, key: str, version: int, stamp: CausalStamp) -> None:
        self._stamps[(key, version)] = stamp

    def lookup(self, key: str, version: Optional[int]) -> Optional[CausalStamp]:
        if version is None:
            return None
        return self._stamps.get((key, version))

    def __len__(self) -> int:
        return len(self._stamps)


class CausalStamper:
    """Mints a :class:`CausalStamp` per key write by tailing commits.

    Attach to a store with :meth:`observe_store` (same pattern as
    ``Tracer.observe_store``); every subsequent commit gets stamped and
    recorded into :attr:`index`.  Purely observational: no sim events,
    no RNG — attaching a stamper never perturbs the schedule.
    """

    __slots__ = ("window", "index", "_recent", "_tracer", "_component",
                 "stamped", "meta_bytes")

    def __init__(
        self,
        window: int = 8,
        index: Optional[StampIndex] = None,
        tracer=None,
        component: str = "store",
    ) -> None:
        if window < 1:
            raise ValueError("dependency window must be >= 1")
        self.window = window
        self.index = index if index is not None else StampIndex()
        self._recent: "OrderedDict[str, int]" = OrderedDict()
        self._tracer = tracer
        self._component = component
        self.stamped = 0
        self.meta_bytes = 0

    def observe_store(self, store):
        """Stamp every future commit of ``store``; returns the cancel
        function of the history tail."""
        return store.history.tail(self.on_commit)

    def on_commit(self, commit) -> None:
        """Stamp one :class:`~repro.storage.history.CommittedTransaction`."""
        # Snapshot the window *before* folding this commit in: a
        # transaction's writes depend on prior commits, not each other.
        deps = tuple(self._recent.items())
        for key, _mutation in commit.writes:
            stamp = CausalStamp(commit.version, deps)
            self.index.record(key, commit.version, stamp)
            self.stamped += 1
            self.meta_bytes += stamp.wire_bytes()
            if self._tracer is not None:
                from repro.obs.trace import hops

                self._tracer.record(
                    hops.CAUSAL_STAMP, self._component,
                    key=key, version=commit.version,
                    n_deps=len(deps), meta_bytes=stamp.wire_bytes(),
                )
        for key, _mutation in commit.writes:
            if key in self._recent:
                del self._recent[key]
            self._recent[key] = commit.version
        while len(self._recent) > self.window:
            self._recent.popitem(last=False)
